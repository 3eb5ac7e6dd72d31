#pragma once
/// \file assay.hpp
/// \brief Assay sequencing graphs — the behavioural input to biochip
/// synthesis.
///
/// An assay is a DAG of fluidic operations on discrete packets (droplets or
/// caged cells). This mirrors the sequencing-graph front end of the early
/// DMFB CAD flows (MFSim / the UCR framework referenced in DESIGN.md) that
/// the paper's "Wild West" landscape alludes to; no canonical benchmark
/// format existed in 2005, so `benchmarks.{hpp,cpp}` reconstructs the
/// standard suites from the literature.

#include <string>
#include <vector>

namespace biochip::cad {

/// Operation kinds. kInput/kOutput touch chip ports; kMix/kSplit/kIncubate/
/// kDetect occupy an on-array module for their duration.
enum class OpKind { kInput, kMix, kSplit, kIncubate, kDetect, kOutput };

const char* to_string(OpKind kind);

/// Expected in-degree per kind (split has 1 input, 2 outputs; mix 2 and 1).
int expected_inputs(OpKind kind);
/// Maximum out-degree (inputs of other ops fed by this one); 0 = unlimited.
int max_outputs(OpKind kind);

/// One node of the sequencing graph.
struct Operation {
  int id = 0;
  OpKind kind = OpKind::kMix;
  std::string label;
  double duration = 0.0;       ///< processing time once placed [s]
  std::vector<int> inputs;     ///< producing operation ids
};

/// Immutable-after-build DAG of operations.
class AssayGraph {
 public:
  explicit AssayGraph(std::string name);

  const std::string& name() const { return name_; }
  const std::vector<Operation>& operations() const { return ops_; }
  const Operation& op(int id) const;
  std::size_t size() const { return ops_.size(); }

  /// Append an operation; `inputs` must reference existing ids.
  int add(OpKind kind, std::vector<int> inputs, double duration,
          const std::string& label = "");

  /// Consumers of op id.
  std::vector<int> successors(int id) const;

  /// Validate structure: acyclic (by construction), correct in-degrees,
  /// split fan-out <= 2, terminal ops are outputs/detects.
  /// Throws ConfigError with a description on the first violation.
  void validate() const;

  /// Critical-path duration ignoring resource limits and transport [s].
  double critical_path() const;

  /// Number of operations of a given kind.
  std::size_t count(OpKind kind) const;

 private:
  std::string name_;
  std::vector<Operation> ops_;
};

}  // namespace biochip::cad
