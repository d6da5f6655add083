#include "src/scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/util/json.h"
#include "src/util/xml_attrs.h"

namespace androne {

namespace {

constexpr std::string_view kHistPrefix = "hist.";
constexpr std::string_view kLatencyPrefix = "latency.";

bool HasPrefix(const std::string& name, std::string_view prefix) {
  return name.compare(0, prefix.size(), prefix) == 0;
}

// Splits a percentile metric "<prefix><name>.p<N>" (1 <= N <= 100) into the
// histogram name and a percentile fraction. Callers match |prefix| first;
// false means a malformed suffix, which ParseAssertion rejects with a real
// error instead of letting it fail "[missing]" at evaluation time.
bool SplitPercentileMetric(const std::string& metric, std::string_view prefix,
                           std::string* name, double* fraction) {
  const size_t tail = metric.rfind(".p");
  if (tail == std::string::npos || tail <= prefix.size() ||
      tail + 2 == metric.size()) {
    return false;
  }
  int percentile = 0;
  for (size_t i = tail + 2; i < metric.size(); ++i) {
    char c = metric[i];
    if (c < '0' || c > '9' || percentile > 100) {
      return false;
    }
    percentile = percentile * 10 + (c - '0');
  }
  if (percentile < 1 || percentile > 100) {
    return false;
  }
  *name = metric.substr(prefix.size(), tail - prefix.size());
  *fraction = percentile / 100.0;
  return true;
}

const Histogram* FindHistogram(const std::string& name,
                               const WorldResult& result) {
  auto hist = result.metrics.histograms.find(name);
  return hist == result.metrics.histograms.end() ? nullptr : &hist->second;
}

// The |fraction| percentile of |hist| divided by |divisor|. False when the
// histogram is absent or empty: no samples, nothing to hold an SLO against.
bool PercentileOf(const Histogram* hist, double fraction, double divisor,
                  double* out) {
  if (hist == nullptr || hist->total_count() == 0) {
    return false;
  }
  *out = static_cast<double>(hist->Percentile(fraction)) / divisor;
  return true;
}

// Side-struct fields reachable by name. Recovery and replay bookkeeping is
// deliberately absent from counters/metrics (a recovered or replayed world
// must merge identically to its twin), so scenarios gate on it here.
struct ResultField {
  std::string_view name;
  double (*get)(const WorldResult&);
};

const ResultField kResultFields[] = {
    {"completed", [](const WorldResult& r) { return r.completed ? 1.0 : 0.0; }},
    {"recovery.crashes",
     [](const WorldResult& r) {
       return static_cast<double>(r.recovery.crashes);
     }},
    {"recovery.restores",
     [](const WorldResult& r) {
       return static_cast<double>(r.recovery.restores);
     }},
    {"recovery.replays_from_boot",
     [](const WorldResult& r) {
       return static_cast<double>(r.recovery.replays_from_boot);
     }},
    {"recovery.checkpoints_saved",
     [](const WorldResult& r) {
       return static_cast<double>(r.recovery.checkpoints_saved);
     }},
    {"recovery.gave_up",
     [](const WorldResult& r) { return r.recovery.gave_up ? 1.0 : 0.0; }},
    {"recovery.fixed_point_ok",
     [](const WorldResult& r) { return r.recovery.fixed_point_ok ? 1.0 : 0.0; }},
    {"replay.recorded",
     [](const WorldResult& r) { return r.replay.recorded ? 1.0 : 0.0; }},
    {"replay.replayed",
     [](const WorldResult& r) { return r.replay.replayed ? 1.0 : 0.0; }},
    {"replay.digest_match",
     [](const WorldResult& r) { return r.replay.digest_match ? 1.0 : 0.0; }},
    {"replay.ticks",
     [](const WorldResult& r) { return static_cast<double>(r.replay.ticks); }},
    {"replay.underruns",
     [](const WorldResult& r) {
       return static_cast<double>(r.replay.underruns);
     }},
    {"replay.log_bytes",
     [](const WorldResult& r) {
       return static_cast<double>(r.replay.log_bytes);
     }},
};

// Resolution order documented on AssertionSpec. Returns false when the
// metric exists nowhere in the result.
bool ResolveMetric(const std::string& name, const WorldResult& result,
                   double* out) {
  std::string base;
  double fraction = 0;
  // A malformed percentile suffix is caught at parse time, so the false
  // returns of the splitter are unreachable via ParseAssertion.
  if (HasPrefix(name, kLatencyPrefix)) {
    if (!SplitPercentileMetric(name, kLatencyPrefix, &base, &fraction)) {
      return false;
    }
    // Microsecond histograms by convention; a bare "latency.<stage>"
    // histogram (already in µs) is accepted as a fallback spelling.
    const Histogram* hist = FindHistogram("latency." + base + "_us", result);
    if (hist == nullptr) {
      hist = FindHistogram("latency." + base, result);
    }
    return PercentileOf(hist, fraction, 1000.0, out);
  }
  if (HasPrefix(name, kHistPrefix)) {
    return SplitPercentileMetric(name, kHistPrefix, &base, &fraction) &&
           PercentileOf(FindHistogram(base, result), fraction, 1.0, out);
  }
  for (const ResultField& field : kResultFields) {
    if (field.name == name) {
      *out = field.get(result);
      return true;
    }
  }
  for (const auto* values :
       {&result.counters, &result.metrics.counters, &result.metrics.gauges}) {
    auto it = values->find(name);
    if (it != values->end()) {
      *out = it->second;
      return true;
    }
  }
  return false;
}

bool IsDigestMetric(const std::string& name) {
  return name == "digest" || name == "flight_digest";
}

std::string FormatDigestHex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

StatusOr<uint64_t> ParseDigestHex(const std::string& token,
                                  const std::string& expr) {
  if (token.size() < 3 || token[0] != '0' ||
      (token[1] != 'x' && token[1] != 'X')) {
    return InvalidArgumentError("assertion \"" + expr +
                                "\": digest value must be 0x-prefixed hex");
  }
  if (token.size() > 18) {
    return InvalidArgumentError("assertion \"" + expr +
                                "\": digest value has more than 16 hex "
                                "digits");
  }
  uint64_t value = 0;
  for (size_t i = 2; i < token.size(); ++i) {
    char c = token[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return InvalidArgumentError("assertion \"" + expr + "\": \"" + token +
                                  "\" is not a hex digest value");
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

bool Compare(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kGt:
      return lhs > rhs;
  }
  return false;
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kGt:
      return ">";
  }
  return "?";
}

std::string AssertionSpec::ToExpr() const {
  if (is_digest) {
    return metric + " " + CompareOpName(op) + " " +
           FormatDigestHex(digest_value);
  }
  return metric + " " + CompareOpName(op) + " " + FormatNumberCompact(value);
}

StatusOr<AssertionSpec> ParseAssertion(const std::string& expr) {
  std::istringstream in(expr);
  std::string metric;
  std::string op;
  std::string number;
  std::string extra;
  in >> metric >> op >> number;
  if (metric.empty() || op.empty() || number.empty() || (in >> extra)) {
    return InvalidArgumentError("assertion \"" + expr +
                                "\": expected \"<metric> <op> <number>\"");
  }
  AssertionSpec spec;
  spec.metric = metric;
  if (op == "<=") {
    spec.op = CompareOp::kLe;
  } else if (op == ">=") {
    spec.op = CompareOp::kGe;
  } else if (op == "==") {
    spec.op = CompareOp::kEq;
  } else if (op == "!=") {
    spec.op = CompareOp::kNe;
  } else if (op == "<") {
    spec.op = CompareOp::kLt;
  } else if (op == ">") {
    spec.op = CompareOp::kGt;
  } else {
    return InvalidArgumentError("assertion \"" + expr +
                                "\": unknown operator \"" + op +
                                "\" (expected one of: <=, >=, ==, !=, <, >)");
  }
  std::string base;
  double fraction = 0;
  if (HasPrefix(metric, kHistPrefix) &&
      !SplitPercentileMetric(metric, kHistPrefix, &base, &fraction)) {
    return InvalidArgumentError(
        "assertion \"" + expr + "\": histogram metric must be "
        "\"hist.<name>.p<N>\" with 1 <= N <= 100");
  }
  if (HasPrefix(metric, kLatencyPrefix) &&
      !SplitPercentileMetric(metric, kLatencyPrefix, &base, &fraction)) {
    return InvalidArgumentError(
        "assertion \"" + expr + "\": stage-latency metric must be "
        "\"latency.<stage>.p<N>\" with 1 <= N <= 100 (bound in ms)");
  }
  if (IsDigestMetric(metric)) {
    if (spec.op != CompareOp::kEq && spec.op != CompareOp::kNe) {
      return InvalidArgumentError("assertion \"" + expr + "\": " + metric +
                                  " supports only == and != (a digest has "
                                  "no order)");
    }
    spec.is_digest = true;
    ASSIGN_OR_RETURN(spec.digest_value, ParseDigestHex(number, expr));
    return spec;
  }
  StatusOr<double> value = ParseNumber(number);
  if (!value.ok()) {
    return InvalidArgumentError("assertion \"" + expr +
                                "\": " + value.status().message());
  }
  spec.value = *value;
  return spec;
}

FleetWorldConfig ScenarioWorldConfig(const ScenarioSpec& spec) {
  FleetWorldConfig config = spec.world;
  config.net_faults =
      spec.net_faults.schedule().empty() ? nullptr : &spec.net_faults;
  config.sensor_faults =
      spec.sensor_faults.schedule().empty() ? nullptr : &spec.sensor_faults;
  return config;
}

std::vector<std::string> EvaluateAssertions(
    const std::vector<AssertionSpec>& assertions, const WorldResult& result) {
  static const std::vector<AssertionSpec> kImplicit = {
      AssertionSpec{"completed", CompareOp::kEq, 1.0}};
  const std::vector<AssertionSpec>& effective =
      assertions.empty() ? kImplicit : assertions;

  std::vector<std::string> failed;
  for (const AssertionSpec& assertion : effective) {
    if (assertion.is_digest) {
      // Exact 64-bit comparison: digests must never round-trip through
      // double. Failures keep the canonical expression only — including
      // the observed digest would split one root cause into per-seed
      // triage buckets.
      uint64_t actual = assertion.metric == "digest" ? result.digest
                                                     : result.flight_digest;
      bool holds = assertion.op == CompareOp::kEq
                       ? actual == assertion.digest_value
                       : actual != assertion.digest_value;
      if (!holds) {
        failed.push_back(assertion.ToExpr());
      }
      continue;
    }
    double actual = 0;
    if (!ResolveMetric(assertion.metric, result, &actual)) {
      failed.push_back(assertion.ToExpr() + " [missing]");
      continue;
    }
    if (!Compare(actual, assertion.op, assertion.value)) {
      failed.push_back(assertion.ToExpr());
    }
  }
  return failed;
}

}  // namespace androne
