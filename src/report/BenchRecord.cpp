//===- report/BenchRecord.cpp ---------------------------------------------==//

#include "report/BenchRecord.h"

#include "support/Json.h"
#include "support/Statistics.h"
#include "telemetry/Export.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace dtb;
using namespace dtb::report;

void BenchRecord::addExact(std::string Name, std::string Unit, double Value,
                           bool LowerIsBetter) {
  BenchMetric M;
  M.Name = std::move(Name);
  M.Unit = std::move(Unit);
  M.LowerIsBetter = LowerIsBetter;
  M.Value = Value;
  Metrics.push_back(std::move(M));
}

const BenchMetric *BenchRecord::findMetric(const std::string &Name) const {
  for (const BenchMetric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

void dtb::report::addProfileToRecord(const profiling::PhaseProfiler &Profiler,
                                     const std::string &Domain,
                                     BenchRecord &Record) {
  for (const auto &[Name, Agg] : Profiler.aggregates()) {
    BenchPhase Phase;
    Phase.Domain = Domain;
    Phase.Name = Name;
    Phase.Count = Agg.Count;
    Phase.SelfCost = Agg.SelfCost;
    Phase.TotalCost = Agg.TotalCost;
    const SampleSet &S = Agg.SelfCostSamples;
    Phase.P50 = S.quantile(0.5);
    Phase.P90 = S.quantile(0.9);
    Phase.P99 = S.quantile(0.99);
    if (!S.empty()) {
      // Population stddev of the per-entry self costs (two-pass).
      double Mean = S.mean(), Acc = 0.0;
      for (double X : S.samples())
        Acc += (X - Mean) * (X - Mean);
      Phase.Stddev = std::sqrt(Acc / static_cast<double>(S.size()));
    }
    Record.Phases.push_back(Phase);

    std::string Prefix = "phase/" + Domain + "/" + Name + "/";
    Record.addExact(Prefix + "self_cost", "cost",
                    static_cast<double>(Agg.SelfCost));
    Record.addExact(Prefix + "total_cost", "cost",
                    static_cast<double>(Agg.TotalCost));
  }
}

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

namespace {

/// Shortest round-trip double text, shared with the telemetry exporters so
/// every number in the repo's JSON formats reads back bit-identically.
std::string num(double V) { return telemetry::arg("", V).Value; }

std::string quoted(const std::string &S) {
  return "\"" + telemetry::escapeJson(S) + "\"";
}

void appendMetric(const BenchMetric &M, std::string &Out) {
  Out += quoted(M.Name) + ": {";
  Out += "\"kind\": \"exact\"";
  Out += ", \"unit\": " + quoted(M.Unit);
  Out += ", \"lower_is_better\": " +
         std::string(M.LowerIsBetter ? "true" : "false");
  Out += ", \"value\": " + num(M.Value);
  Out += "}";
}

void appendPhase(const BenchPhase &P, std::string &Out) {
  Out += quoted(P.Name) + ": {";
  Out += "\"count\": " + std::to_string(P.Count);
  Out += ", \"self_cost\": " + std::to_string(P.SelfCost);
  Out += ", \"total_cost\": " + std::to_string(P.TotalCost);
  Out += ", \"p50\": " + num(P.P50);
  Out += ", \"p90\": " + num(P.P90);
  Out += ", \"p99\": " + num(P.P99);
  Out += ", \"stddev\": " + num(P.Stddev);
  Out += "}";
}

} // namespace

std::string dtb::report::toJson(const BenchRecord &Record) {
  std::string Out = "{\n";
  Out += "  \"schema_version\": " + std::to_string(Record.SchemaVersion) +
         ",\n";
  Out += "  \"suite\": " + quoted(Record.Suite) + ",\n";

  Out += "  \"metrics\": {";
  for (size_t I = 0; I != Record.Metrics.size(); ++I) {
    Out += I ? ",\n    " : "\n    ";
    appendMetric(Record.Metrics[I], Out);
  }
  Out += Record.Metrics.empty() ? "}" : "\n  }";

  Out += ",\n  \"phases\": {";
  // Phases grouped by domain, preserving insertion order within each.
  std::vector<std::string> Domains;
  for (const BenchPhase &P : Record.Phases)
    if (std::find(Domains.begin(), Domains.end(), P.Domain) == Domains.end())
      Domains.push_back(P.Domain);
  for (size_t D = 0; D != Domains.size(); ++D) {
    Out += D ? ",\n    " : "\n    ";
    Out += quoted(Domains[D]) + ": {";
    bool First = true;
    for (const BenchPhase &P : Record.Phases) {
      if (P.Domain != Domains[D])
        continue;
      Out += First ? "\n      " : ",\n      ";
      First = false;
      appendPhase(P, Out);
    }
    Out += "\n    }";
  }
  Out += Domains.empty() ? "}" : "\n  }";

  Out += "\n}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool boolOr(const json::Value &Object, const std::string &Key, bool Default) {
  const json::Value *V = Object.find(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

} // namespace

bool dtb::report::parseBenchRecord(const std::string &Text, BenchRecord *Out,
                                   std::string *Error) {
  json::Value Root;
  if (!json::parse(Text, &Root, Error))
    return false;
  if (!Root.isObject())
    return fail(Error, "BENCH document is not a JSON object");

  BenchRecord Record;
  const json::Value *Version = Root.find("schema_version");
  if (!Version || !Version->isNumber())
    return fail(Error, "missing numeric schema_version");
  Record.SchemaVersion = static_cast<int>(Version->asDouble());
  Record.Suite = Root.stringOr("suite", "");

  const json::Value *Metrics = Root.find("metrics");
  if (!Metrics || !Metrics->isObject())
    return fail(Error, "missing metrics object");
  for (const auto &[Name, V] : Metrics->members()) {
    if (!V.isObject())
      return fail(Error, "metric '" + Name + "' is not an object");
    BenchMetric M;
    M.Name = Name;
    M.Unit = V.stringOr("unit", "");
    M.LowerIsBetter = boolOr(V, "lower_is_better", true);
    std::string Kind = V.stringOr("kind", "exact");
    if (Kind != "exact")
      return fail(Error, "metric '" + Name + "' has unknown kind '" + Kind +
                             "'");
    const json::Value *Value = V.find("value");
    if (!Value || !Value->isNumber())
      return fail(Error, "exact metric '" + Name + "' has no value");
    M.Value = Value->asDouble();
    Record.Metrics.push_back(std::move(M));
  }

  if (const json::Value *Phases = Root.find("phases");
      Phases && Phases->isObject()) {
    for (const auto &[Domain, Block] : Phases->members()) {
      if (!Block.isObject())
        return fail(Error, "phase domain '" + Domain + "' is not an object");
      for (const auto &[Name, V] : Block.members()) {
        if (!V.isObject())
          return fail(Error, "phase '" + Name + "' is not an object");
        BenchPhase P;
        P.Domain = Domain;
        P.Name = Name;
        P.Count = static_cast<uint64_t>(V.numberOr("count", 0));
        P.SelfCost = static_cast<uint64_t>(V.numberOr("self_cost", 0));
        P.TotalCost = static_cast<uint64_t>(V.numberOr("total_cost", 0));
        P.P50 = V.numberOr("p50", 0.0);
        P.P90 = V.numberOr("p90", 0.0);
        P.P99 = V.numberOr("p99", 0.0);
        P.Stddev = V.numberOr("stddev", 0.0);
        Record.Phases.push_back(std::move(P));
      }
    }
  }

  *Out = std::move(Record);
  return true;
}
