#include "cad/assay.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biochip::cad {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kMix: return "mix";
    case OpKind::kSplit: return "split";
    case OpKind::kIncubate: return "incubate";
    case OpKind::kDetect: return "detect";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

int expected_inputs(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return 0;
    case OpKind::kMix: return 2;
    case OpKind::kSplit:
    case OpKind::kIncubate:
    case OpKind::kDetect:
    case OpKind::kOutput: return 1;
  }
  return 0;
}

int max_outputs(OpKind kind) {
  switch (kind) {
    case OpKind::kOutput: return 0;
    case OpKind::kSplit: return 2;
    case OpKind::kInput:
    case OpKind::kMix:
    case OpKind::kIncubate:
    case OpKind::kDetect: return 1;
  }
  return 0;
}

AssayGraph::AssayGraph(std::string name) : name_(std::move(name)) {}

const Operation& AssayGraph::op(int id) const {
  BIOCHIP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
                  "unknown operation id");
  return ops_[static_cast<std::size_t>(id)];
}

int AssayGraph::add(OpKind kind, std::vector<int> inputs, double duration,
                    const std::string& label) {
  const int id = static_cast<int>(ops_.size());
  for (int in : inputs)
    BIOCHIP_REQUIRE(in >= 0 && in < id, "operation input must reference an earlier op");
  BIOCHIP_REQUIRE(duration >= 0.0, "operation duration must be non-negative");
  Operation op;
  op.id = id;
  op.kind = kind;
  op.label = label.empty() ? std::string(to_string(kind)) + "_" + std::to_string(id) : label;
  op.duration = duration;
  op.inputs = std::move(inputs);
  ops_.push_back(std::move(op));
  return id;
}

std::vector<int> AssayGraph::successors(int id) const {
  op(id);  // bounds check
  std::vector<int> out;
  for (const Operation& o : ops_)
    if (std::find(o.inputs.begin(), o.inputs.end(), id) != o.inputs.end())
      out.push_back(o.id);
  return out;
}

void AssayGraph::validate() const {
  if (ops_.empty()) throw ConfigError("assay '" + name_ + "' is empty");
  for (const Operation& o : ops_) {
    const int want = expected_inputs(o.kind);
    if (static_cast<int>(o.inputs.size()) != want)
      throw ConfigError("op '" + o.label + "' needs " + std::to_string(want) +
                        " inputs, has " + std::to_string(o.inputs.size()));
    const int max_out = max_outputs(o.kind);
    const std::size_t succ = successors(o.id).size();
    if (max_out >= 0 && o.kind == OpKind::kOutput && succ != 0)
      throw ConfigError("output op '" + o.label + "' must be terminal");
    if (o.kind == OpKind::kSplit && succ > 2)
      throw ConfigError("split op '" + o.label + "' feeds more than two consumers");
    if (o.kind != OpKind::kOutput && o.kind != OpKind::kSplit && succ > 1)
      throw ConfigError("op '" + o.label + "' fans out more than once (insert split)");
    if (o.kind != OpKind::kOutput && o.kind != OpKind::kDetect && succ == 0)
      throw ConfigError("non-terminal op '" + o.label + "' has no consumer");
  }
}

double AssayGraph::critical_path() const {
  std::vector<double> finish(ops_.size(), 0.0);
  double best = 0.0;
  for (const Operation& o : ops_) {
    double start = 0.0;
    for (int in : o.inputs)
      start = std::max(start, finish[static_cast<std::size_t>(in)]);
    finish[static_cast<std::size_t>(o.id)] = start + o.duration;
    best = std::max(best, finish[static_cast<std::size_t>(o.id)]);
  }
  return best;
}

std::size_t AssayGraph::count(OpKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [kind](const Operation& o) { return o.kind == kind; }));
}

}  // namespace biochip::cad
