// perfbench_runner: one workload, one seed, one thread.
//
//   perfbench_runner --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Sets the workload up several times (set-up time is the median), then runs
// passes over the seed's fixed work until S seconds have gone. Host times
// come from steady_clock around the library's public calls with tracing off,
// scaled to the reference host speed by the samples the host-speed sampler
// took inside each call (host_speed.hpp). With --trace 1, traced passes (the
// library's timing plane attached, the sampler off) alternate with untraced
// ones and give the per-layer numbers in wall time. The last line of
// standard output is one JSON object; the exit code is 1 when an output
// check fails.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "field/stencil_kernel.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 9;

// The metrics the JSON line carries, measured on every workload; everything
// else is printed in the tables only. Peak RSS is left out because on
// fleet_faulted it follows the seed's heaviest episode.
const char* const kEndToEnd[] = {"chamber_ticks_per_s", "setup_s"};
const char* const kPerLayer[] = {
    "physics.integrate_us", "physics.integrate_us_p99", "sensor.sense_us",
    "sensor.sense_us_p99", "sensor.frames_per_chamber_tick", "chip.actuate_us",
    "chip.actuate_us_p99", "control.plan_us", "control.plan_us_p99", "control.replans",
    "control.track_us", "core.dispatch_us", "control.elided_share",
    "field.simd_calibrate_ms", "field.cage_calibrate_ms", "chip.world_build_ms",
    "host.offcpu_share", "host.ref_speed", "obs.trace_overhead", "obs.span_coverage"};

// Chamber-lane phase spans (per executed chamber-tick) and driver-lane
// phase spans (per tick), with the metric each one feeds.
const std::pair<const char*, const char*> kChamberPhases[] = {
    {"actuate", "chip.actuate_us"}, {"physics", "physics.integrate_us"},
    {"sense", "sensor.sense_us"},   {"plan", "control.plan_us"},
    {"track", "control.track_us"}};
const std::pair<const char*, const char*> kDriverPhases[] = {
    {"faults", "chip.faults_us"},      {"arrivals", "control.arrivals_us"},
    {"harvest", "control.harvest_us"}, {"admit", "control.admit_us"},
    {"fold", "control.fold_us"},       {"arbitrate", "control.arbitrate_us"}};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const std::string value = argv[a + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// High-water resident set of this process image [MiB]. Read from
/// /proc/self/status, because getrusage's ru_maxrss survives exec and would
/// report the launching interpreter's peak instead.
std::optional<double> peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nullopt;
  char line[256];
  std::optional<double> kib;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long v = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) kib = static_cast<double>(v);
  }
  std::fclose(f);
  if (!kib.has_value()) return std::nullopt;
  return *kib / 1024.0;
}

Metric host(std::string name, std::optional<double> value, std::string unit) {
  return {std::move(name), value, std::move(unit), false};
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    const char* kind = m.simulated ? "simulated" : "host";
    if (m.value.has_value())
      std::printf("  %-32s %18.6f  %-6s  %s\n", m.name.c_str(), *m.value, m.unit.c_str(), kind);
    else
      std::printf("  %-32s %18s  %-6s  %s\n", m.name.c_str(), "withheld", m.unit.c_str(),
                  kind);
  }
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);

  // The stencil kernel would time its SIMD levels on first use and keep the
  // fastest; on a busy host that choice flips between processes (scalar in
  // one of five field_tracked runs, which read a quarter slower). main()
  // pins the best level the CPU supports instead, and the calibration a
  // process would pay is timed here on its own, its choice discarded. The
  // sampler is armed only after it.
  const int simd_level = biochip::field::stencil::simd_level();
  const auto t0 = Clock::now();
  biochip::field::stencil::detail::calibrate_simd_level(simd_level);
  const double simd_ms = since_s(t0) * 1e3;
  std::optional<HostSpeedSampler> sampler;
  sampler.emplace();

  std::vector<double> setup_s, setup_wall_s, cage_ms, world_ms, plan_ms;
  for (int k = 0; k < kSetups; ++k) {
    const CallTimer timer;
    const SetupParts parts = workload->setup();
    const CallTime whole = timer.stop();
    // A part too short to hold samples of its own takes the whole set-up's.
    const auto scaled = [&](const CallTime& part) { return scaled_ms({part}, whole.host)[0]; };
    setup_s.push_back(scaled(whole) * 1e-3);
    setup_wall_s.push_back(whole.ms * 1e-3);
    cage_ms.push_back(scaled(parts.cage_calibrate));
    world_ms.push_back(scaled(parts.world_build));
    if (parts.initial_plan.has_value()) plan_ms.push_back(scaled(*parts.initial_plan));
  }

  // Passes until the time is up; traced and untraced passes alternate which
  // runs first, so host drift does not bias the tracing overhead. The
  // sampler is off during traced passes: its kernel runs would land inside
  // the spans.
  std::vector<Pass> plain, traced;
  LayerFold fold;
  const auto traced_pass = [&] {
    sampler.reset();
    traced.push_back(workload->run(&fold));
    sampler.emplace();
  };
  const double cpu0 = cpu_s();
  const auto wall0 = Clock::now();
  for (int rep = 0; rep == 0 || since_s(wall0) < args.seconds; ++rep) {
    const bool traced_first = args.trace && rep % 2 == 1;
    if (traced_first) traced_pass();
    plain.push_back(workload->run(nullptr));
    if (args.trace && !traced_first) traced_pass();
  }
  const double offcpu = 1.0 - (cpu_s() - cpu0) / since_s(wall0);
  sampler.reset();
  const std::optional<double> peak_rss_mb = peak_rss_mib();

  // Output checks: each pass's own, identical simulated statistics across
  // every pass (traced or not), and the workload's cross-configuration ones.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  for (const std::vector<Pass>* set : {&plain, &traced})
    for (const Pass& p : *set) {
      attempted += p.calls.size();
      if (!p.failures.empty()) failed += p.calls.size();
      failures.insert(failures.end(), p.failures.begin(), p.failures.end());
      if (p.digest != plain.front().digest)
        failures.push_back(set == &traced ? "a traced pass simulated something else"
                                          : "two untraced passes simulated different things");
    }
  for (const std::string& f : workload->cross_checks(plain.front())) failures.push_back(f);

  // Rates are per timed call, and their median is reported: one faulted
  // fleet episode can run seconds where its siblings take tens of
  // milliseconds, and would otherwise set the whole pass's rate.
  std::vector<double> plain_s, traced_s, rates, wall_rates, calls;
  HostSamples all_samples;
  for (const Pass& p : plain) {
    plain_s.push_back(p.timed_s);
    HostSamples pass_samples;
    for (const CallTime& c : p.calls) pass_samples += c.host;
    all_samples += pass_samples;
    const std::vector<double> ms = scaled_ms(p.calls, pass_samples);
    for (std::size_t k = 0; k < ms.size(); ++k) {
      const auto ticks = static_cast<double>(p.call_chamber_ticks[k]);
      rates.push_back(ticks / (ms[k] * 1e-3));
      wall_rates.push_back(ticks / (p.calls[k].ms * 1e-3));
    }
    calls.insert(calls.end(), ms.begin(), ms.end());
  }
  for (const Pass& p : traced) traced_s.push_back(p.timed_s);
  const double speed = host_speed(all_samples);

  std::vector<Metric> metrics = {
      host("setup_s", median(setup_s), "s"),
      host("chamber_ticks_per_s", median(rates), "1/s"),
      host("setup_wall_s", median(setup_wall_s), "s"),
      host("chamber_ticks_per_wall_s", median(wall_rates), "1/s"),
      host("peak_rss_mb", peak_rss_mb, "MB"),
  };
  if (const Workload::CallLatency call = workload->call_latency(); call.stem != nullptr) {
    const std::string stem = call.stem;
    metrics.push_back(host(stem + "_p50", percentile(calls, 50), "ms"));
    metrics.push_back(host(stem + "_p" + std::to_string(call.tail),
                           percentile(calls, call.tail), "ms"));
  }
  // Simulated counts named after a module explain a layer; the rest are
  // end-to-end outcomes.
  std::vector<Metric> layers;
  for (const Metric& m : plain.front().simulated)
    (m.name.find('.') == std::string::npos ? metrics : layers).push_back(m);
  layers.push_back(host("field.simd_calibrate_ms", simd_ms, "ms"));
  layers.push_back(host("field.cage_calibrate_ms", median(cage_ms), "ms"));
  layers.push_back(host("chip.world_build_ms", median(world_ms), "ms"));
  if (!plan_ms.empty()) layers.push_back(host("cad.initial_plan_ms", median(plan_ms), "ms"));
  layers.push_back(host("host.offcpu_share", offcpu, "ratio"));
  layers.push_back(host("host.ref_speed", speed, "ratio"));
  if (args.trace) {
    std::uint64_t ticks = 0, executed = 0;
    double traced_us = 0.0;
    for (const Pass& p : traced) {
      ticks += p.ticks;
      executed += p.chamber_ticks - p.elided_chamber_ticks;
      traced_us += p.timed_s * 1e6;
    }
    const Pass& one = traced.front();
    for (const auto& [span, name] : kChamberPhases) {
      layers.push_back(host(name, fold.total_us(span) / static_cast<double>(executed), "us"));
      if (std::string(span) != "track")
        layers.push_back(host(std::string(name) + "_p99", percentile(fold.samples_us(span), 99),
                              "us"));
    }
    for (const auto& [span, name] : kDriverPhases)
      if (!fold.samples_us(span).empty())
        layers.push_back(host(name, fold.total_us(span) / static_cast<double>(ticks), "us"));
    layers.push_back(
        host("core.dispatch_us", fold.total_us("chambers") / static_cast<double>(ticks), "us"));
    const double one_executed = static_cast<double>(one.chamber_ticks - one.elided_chamber_ticks);
    layers.push_back({"sensor.frames_per_chamber_tick",
                      static_cast<double>(one.frames_sensed) / one_executed, "count", true});
    layers.push_back({"control.replans", static_cast<double>(one.replans), "count", true});
    layers.push_back({"control.elided_share",
                      static_cast<double>(one.elided_chamber_ticks) /
                          static_cast<double>(one.chamber_ticks),
                      "ratio", true});
    layers.push_back(
        {"chip.faults_injected", static_cast<double>(one.faults_injected), "count", true});
    layers.push_back(host("obs.trace_overhead", *median(traced_s) / *median(plain_s) - 1.0,
                          "ratio"));
    layers.push_back(host("obs.span_coverage", fold.covered_us() / traced_us, "ratio"));
  }

  // The JSON line carries the contract's metric set; each must be measured.
  std::vector<const Metric*> json;
  const auto want = [&](const std::vector<Metric>& from, const char* name) {
    const Metric* m = find(from, name);
    if (m == nullptr || !m->value.has_value() || !std::isfinite(*m->value))
      failures.push_back(std::string("metric not measured: ") + name);
    else
      json.push_back(m);
  };
  if (args.trace)
    for (const char* name : kPerLayer) want(layers, name);
  else
    for (const char* name : kEndToEnd) want(metrics, name);

  std::printf("perfbench %s seed %llu: %zu untraced + %zu traced passes in %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), since_s(wall0));
  double load[3] = {0.0, 0.0, 0.0};
  getloadavg(load, 3);
  std::printf("context: simd_level %d  nproc %ld  loadavg %.2f %.2f %.2f  build %s  "
              "seed %llu  host.offcpu_share %.4f  host.ref_speed %.4f (%llu samples)\n",
              simd_level, sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
              PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(args.seed), offcpu, speed,
              static_cast<unsigned long long>(all_samples.count));
  print_table("end-to-end", metrics);
  print_table("per layer", layers);
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failures.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < json.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                json[i]->name.c_str(), *json[i]->value, json[i]->unit.c_str());
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The best SIMD level the CPU supports, unless the caller chose one.
  setenv("BIOCHIP_SIMD_LEVEL", "2", /*overwrite=*/0);
  Args args;
  const std::vector<std::string>& names = workload_names();
  if (!parse(argc, argv, args) ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "workloads:",
                 argv[0]);
    for (const std::string& name : names) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\nseeds: default %llu, held out %llu\n",
                 static_cast<unsigned long long>(kDefaultSeed),
                 static_cast<unsigned long long>(kHeldoutSeed));
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
