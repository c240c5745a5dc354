//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per workload, plus the correctness checks each applies
/// to the program's outputs (exposed so the self-test can feed them
/// corrupted inputs).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PERFBENCH_WORKLOADS_H
#define DTB_PERFBENCH_WORKLOADS_H

#include "Bench.h"
#include "Oracle.h"

#include "core/ScavengeHistory.h"
#include "runtime/Heap.h"

#include <string>
#include <vector>

namespace perfbench {

/// sim-paper: the paper's six traces x six policies through sim::simulate.
RunResult runSimPaper(const RunOptions &Options);

/// rt-graph (mark-sweep) and rt-copy (copying): one mutator on the direct
/// Heap API over frontend lifetimes.
RunResult runRtGraph(const RunOptions &Options,
                     dtb::runtime::CollectorKind Collector);

/// rt-threads (\p Threads = 3: one mutator thread per multitenant tenant)
/// and rt-tlab (\p Threads = 1: one mutator thread for all tenants), each
/// thread on its own MutatorContext.
RunResult runRtThreads(const RunOptions &Options, unsigned Threads);

/// Runs every check on clean and on corrupted inputs and prints one line
/// per case; returns 0 when each check passed the clean input and failed
/// the corrupted one.
int runSelfTest();

/// Checks the simulator's per-scavenge records of one cell against the
/// oracle: no scavenge traces more than the live bytes, FULL traces
/// exactly them, and what survives covers them. Returns "" when they hold.
std::string checkSimHistory(const dtb::core::ScavengeHistory &History,
                            const LivenessOracle &Oracle, bool IsFull);

/// True when two scavenge histories agree record for record.
bool sameHistory(const dtb::core::ScavengeHistory &A,
                 const dtb::core::ScavengeHistory &B);

/// Checks FULL's mean memory (Table 2) against the published figure for
/// \p Workload, within the tolerance the integration test uses.
std::string checkFullTable2(const std::string &Workload, double MemMeanBytes);

} // namespace perfbench

#endif // DTB_PERFBENCH_WORKLOADS_H
