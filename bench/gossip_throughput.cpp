/// \file gossip_throughput.cpp
/// Gossip-plane throughput (docs/PROTOCOL.md "The gossip hot path"): a
/// converged community absorbing a stream of filter-change events at 1000 and
/// 5000 peers, comparing
///   uncached — the pre-cache cost model: every summary() call rebuilds the
///              sorted snapshot and newer_in/same_as probe the directory
///              hash map per entry (Directory::set_summary_caching(false)),
///   cached   — the epoch-cached snapshot plus merge-scan comparisons (the
///              shipping configuration),
///   parallel — cached, plus deterministic parallel round stepping
///              (SimConfig::parallel_round_tick; same-tick rounds step on a
///              thread pool and commit in node-id order),
/// and, on the dissemination axis (docs/PROTOCOL.md "Lazy dissemination"),
///   eager    — the cached run, read on this axis as the blind-push baseline,
///   lazy     — digests only (RumorMode::kLazy) + delta anti-entropy replies,
///   hybrid   — Plumtree-style eager-first-hops (RumorMode::kHybrid) + delta
///              anti-entropy replies.
///
/// Reports wall-clock gossip rounds/sec (numerator: SimCommunity::
/// rounds_executed), simulated bytes per round — split per message type —
/// heap allocations per round (counted by common/alloc_counter.cpp), and the
/// protocol's dissemination counters. Emits BENCH_gossip_throughput.json.
/// Built-in gates:
///   1. cached and uncached runs must be behaviourally identical — same
///      bytes, messages, rounds, and convergence samples for the same seed
///      (the cache must be invisible);
///   2. cached must be >= 3x uncached rounds/sec at 5000 peers;
///   3. hybrid must move < 1/2 the bytes/round of eager at 5000 peers with
///      every event still converging and mean convergence time within 1.5x
///      of eager (the lazy tentpole's in-run acceptance gate);
///   4. lazy mode must push zero blind payloads and see (near-)zero
///      duplicate payload deliveries once converged;
///   5. with --baseline <json>, cached rounds/sec must stay above half the
///      recorded baseline and hybrid bytes/round must stay below twice the
///      recorded hybrid_bytes_per_round figure (scripts/check.sh runs this
///      against bench/baselines/).
/// Usage: gossip_throughput [--quick] [--lazy-smoke] [--baseline <file>]
/// --lazy-smoke runs a small lazy/hybrid-only community and checks gate 4
/// plus convergence — cheap enough for the ASan leg of scripts/check.sh.

#include <array>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "sim/community.hpp"

using namespace planetp;
using namespace planetp::sim;

namespace {

enum class Mode { kUncached, kCached, kParallel, kLazy, kHybrid };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kUncached: return "uncached";
    case Mode::kCached: return "cached";
    case Mode::kParallel: return "parallel";
    case Mode::kLazy: return "lazy";
    case Mode::kHybrid: return "hybrid";
  }
  return "?";
}

/// Message-type names by gossip::Message variant index (the key of
/// NetworkStats::bytes_by_type).
constexpr std::array<const char*, gossip::kMessageTypeCount> kTypeNames = {
    "Rumor", "RumorAck", "SummaryRequest", "Summary",
    "PullRequest", "PullResponse", "RumorDigest", "RumorWant"};

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t rounds = 0;
  double rounds_per_sec = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;
  std::uint64_t summary_builds = 0;
  std::vector<double> durations;  ///< convergence samples (seconds)
  bool consistent = false;
  std::size_t events = 0;
  std::array<std::uint64_t, gossip::kMessageTypeCount> bytes_by_type{};
  std::array<std::uint64_t, gossip::kMessageTypeCount> messages_by_type{};
  gossip::GossipStats gossip;  ///< dissemination counters over the window

  double bytes_per_round() const {
    return rounds > 0 ? static_cast<double>(bytes) / static_cast<double>(rounds) : 0.0;
  }
  double mean_convergence_s() const {
    if (durations.empty()) return 0.0;
    double sum = 0.0;
    for (double d : durations) sum += d;
    return sum / static_cast<double>(durations.size());
  }
};

/// One community absorbing `events` filter changes (one every 15 simulated
/// seconds, rotating origins), then draining until quiet. Only the absorb +
/// drain window is timed: community construction and the converged bootstrap
/// are setup, not gossip.
RunResult run_mode(Mode mode, std::size_t peers, std::size_t events) {
  SimConfig cfg;
  cfg.seed = 4242;  // identical for every mode: the equivalence gate needs it
  if (mode == Mode::kParallel) {
    cfg.parallel_round_tick = kSecond;
    cfg.parallel_threads = 0;  // hardware concurrency
  }
  if (mode == Mode::kLazy || mode == Mode::kHybrid) {
    cfg.gossip.rumor_mode =
        mode == Mode::kLazy ? gossip::RumorMode::kLazy : gossip::RumorMode::kHybrid;
    cfg.gossip.delta_summaries = true;
  }
  SimCommunity community(cfg);
  for (std::size_t i = 0; i < peers; ++i) {
    community.add_peer({link_speed::kLan45M, 1000});
  }
  const auto t = community.add_tracker("all", [](gossip::PeerId) { return true; });
  community.start_converged();
  if (mode == Mode::kUncached) {
    for (std::size_t id = 0; id < peers; ++id) {
      community.protocol(static_cast<gossip::PeerId>(id)).directory().set_summary_caching(false);
    }
  }

  const std::uint64_t rounds0 = community.rounds_executed();
  const std::uint64_t bytes0 = community.stats().total_bytes();
  const std::uint64_t msgs0 = community.stats().total_messages();
  const auto types_bytes0 = community.stats().bytes_by_type();
  const auto types_msgs0 = community.stats().messages_by_type();
  const gossip::GossipStats gossip0 = community.stats().gossip_stats();
  const std::uint64_t allocs0 = bench::allocations();
  const double t0 = bench::now_s();

  TimePoint at = kMinute;
  community.run_until(at);
  for (std::size_t e = 0; e < events; ++e) {
    community.inject_filter_change(static_cast<gossip::PeerId>((e * 997) % peers), 100);
    at += 15 * kSecond;
    community.run_until(at);
  }
  community.set_tracking(false);
  community.run_until(at + 12 * kMinute);

  RunResult r;
  r.wall_s = bench::now_s() - t0;
  r.allocs = bench::allocations() - allocs0;
  r.rounds = community.rounds_executed() - rounds0;
  r.rounds_per_sec = r.wall_s > 0.0 ? static_cast<double>(r.rounds) / r.wall_s : 0.0;
  r.bytes = community.stats().total_bytes() - bytes0;
  r.messages = community.stats().total_messages() - msgs0;
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    r.bytes_by_type[i] = community.stats().bytes_by_type()[i] - types_bytes0[i];
    r.messages_by_type[i] = community.stats().messages_by_type()[i] - types_msgs0[i];
  }
  r.gossip = community.stats().gossip_stats();
  r.gossip -= gossip0;
  r.durations = community.tracker(t).durations().samples();
  r.consistent = community.directories_consistent();
  r.events = events;
  for (std::size_t id = 0; id < peers; ++id) {
    r.summary_builds +=
        community.protocol(static_cast<gossip::PeerId>(id)).directory().summary_builds();
  }
  return r;
}

void print_mode(Mode m, const RunResult& r) {
  std::printf(
      "  %-9s %7.2f s   %8llu rounds   %9.0f rounds/s   %7.1f B/round   %6.1f allocs/round   "
      "%llu summary builds%s\n",
      mode_name(m), r.wall_s, static_cast<unsigned long long>(r.rounds), r.rounds_per_sec,
      r.bytes_per_round(),
      r.rounds > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.rounds) : 0.0,
      static_cast<unsigned long long>(r.summary_builds), r.consistent ? "" : "   (INCONSISTENT)");
}

void print_dissemination(Mode m, const RunResult& r) {
  std::printf(
      "  %-9s payloads %llu (dup %llu)   digests %llu (%llu ids)   wants %llu (%llu ids, "
      "%llu served)   mean convergence %.1f s\n",
      mode_name(m), static_cast<unsigned long long>(r.gossip.payloads_sent),
      static_cast<unsigned long long>(r.gossip.duplicate_payloads),
      static_cast<unsigned long long>(r.gossip.digests_sent),
      static_cast<unsigned long long>(r.gossip.digest_ids_sent),
      static_cast<unsigned long long>(r.gossip.wants_sent),
      static_cast<unsigned long long>(r.gossip.want_ids_sent),
      static_cast<unsigned long long>(r.gossip.wants_served), r.mean_convergence_s());
  std::printf("  %-9s bytes by type:", mode_name(m));
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    if (r.bytes_by_type[i] == 0) continue;
    std::printf(" %s %.1f B/round", kTypeNames[i],
                r.rounds > 0 ? static_cast<double>(r.bytes_by_type[i]) /
                                   static_cast<double>(r.rounds)
                             : 0.0);
  }
  std::printf("\n");
}

/// The cache must be invisible: same seed, same trace.
bool equivalent(const RunResult& a, const RunResult& b) {
  return a.bytes == b.bytes && a.messages == b.messages && a.rounds == b.rounds &&
         a.durations == b.durations && a.consistent && b.consistent;
}

struct SizeResult {
  std::size_t peers = 0;
  RunResult uncached, cached, parallel, lazy, hybrid;
  double speedup = 0.0;
  double hybrid_byte_reduction = 0.0;  ///< eager bytes/round ÷ hybrid bytes/round
};

SizeResult run_size(std::size_t peers, std::size_t events) {
  SizeResult out;
  out.peers = peers;
  std::printf("%5zu peers, %zu filter-change events:\n", peers, events);
  out.uncached = run_mode(Mode::kUncached, peers, events);
  print_mode(Mode::kUncached, out.uncached);
  out.cached = run_mode(Mode::kCached, peers, events);
  print_mode(Mode::kCached, out.cached);
  out.parallel = run_mode(Mode::kParallel, peers, events);
  print_mode(Mode::kParallel, out.parallel);
  out.lazy = run_mode(Mode::kLazy, peers, events);
  print_mode(Mode::kLazy, out.lazy);
  out.hybrid = run_mode(Mode::kHybrid, peers, events);
  print_mode(Mode::kHybrid, out.hybrid);
  out.speedup =
      out.uncached.rounds_per_sec > 0.0 ? out.cached.rounds_per_sec / out.uncached.rounds_per_sec
                                        : 0.0;
  std::printf("  cached speedup vs uncached: %.1fx\n", out.speedup);
  print_dissemination(Mode::kCached, out.cached);
  print_dissemination(Mode::kLazy, out.lazy);
  print_dissemination(Mode::kHybrid, out.hybrid);
  out.hybrid_byte_reduction = out.hybrid.bytes_per_round() > 0.0
                                  ? out.cached.bytes_per_round() / out.hybrid.bytes_per_round()
                                  : 0.0;
  std::printf("  hybrid byte reduction vs eager: %.2fx\n\n", out.hybrid_byte_reduction);
  return out;
}

void append_mode(std::ostringstream& os, const char* name, const RunResult& r) {
  os << "\"" << name << "\": {\"wall_s\": " << r.wall_s << ", \"rounds\": " << r.rounds
     << ", \"rounds_per_sec\": " << r.rounds_per_sec
     << ", \"bytes_per_round\": " << r.bytes_per_round() << ", \"allocs_per_round\": "
     << (r.rounds > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.rounds) : 0.0)
     << ", \"summary_builds\": " << r.summary_builds
     << ", \"converged_events\": " << r.durations.size()
     << ", \"mean_convergence_s\": " << r.mean_convergence_s() << ", \"bytes_by_type\": {";
  bool first = true;
  for (std::size_t i = 0; i < gossip::kMessageTypeCount; ++i) {
    if (r.bytes_by_type[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << kTypeNames[i] << "\": " << r.bytes_by_type[i];
  }
  os << "}, \"payloads_sent\": " << r.gossip.payloads_sent
     << ", \"duplicate_payloads\": " << r.gossip.duplicate_payloads
     << ", \"digests_sent\": " << r.gossip.digests_sent
     << ", \"wants_served\": " << r.gossip.wants_served << "}";
}

/// Gate 4: lazy pushes nothing blind and a converged community re-delivers
/// (nearly) nothing. The handful of tolerated duplicates are want/pull races
/// — two peers serving the same id before either delivery lands.
void check_lazy_counters(std::size_t peers, const RunResult& lazy, bench::Report& report) {
  if (lazy.gossip.payloads_sent != 0) {
    report.fail("lazy mode pushed %llu blind payloads at %zu peers (want 0)",
                static_cast<unsigned long long>(lazy.gossip.payloads_sent), peers);
  }
  const std::uint64_t dup_budget = lazy.events * 2 + 8;
  if (lazy.gossip.duplicate_payloads > dup_budget) {
    report.fail("lazy mode saw %llu duplicate payload deliveries at %zu peers (budget %llu)",
                static_cast<unsigned long long>(lazy.gossip.duplicate_payloads), peers,
                static_cast<unsigned long long>(dup_budget));
  }
}

/// Every event converged and every directory ended consistent.
void check_converged(const char* name, std::size_t peers, const RunResult& r,
                     bench::Report& report) {
  if (!r.consistent || r.durations.size() != r.events) {
    report.fail("%s run at %zu peers did not converge (%zu/%zu events)", name, peers,
                r.durations.size(), r.events);
  }
}

/// --lazy-smoke: a small lazy + hybrid community under the sanitizer build.
/// Exercises the digest/want/serve path and the delta-summary path end to
/// end, then applies the convergence and counter gates (not the byte-ratio
/// gate: at smoke scale the full-summary baseline is cheap anyway). Writes no
/// BENCH_*.json.
int run_lazy_smoke(bench::Report& report) {
  constexpr std::size_t kPeers = 300;
  constexpr std::size_t kEvents = 3;
  for (Mode m : {Mode::kLazy, Mode::kHybrid}) {
    const RunResult r = run_mode(m, kPeers, kEvents);
    print_mode(m, r);
    print_dissemination(m, r);
    check_converged(mode_name(m), kPeers, r, report);
    if (m == Mode::kLazy) check_lazy_counters(kPeers, r, report);
  }
  return report.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args_or_exit("gossip_throughput", argc, argv, {"--lazy-smoke"});
  bench::Report report("gossip_throughput", args);
  if (args.has("--lazy-smoke")) return run_lazy_smoke(report);

  const std::size_t events = args.quick ? 4 : 12;
  std::vector<SizeResult> results;
  results.push_back(run_size(1000, events));
  results.push_back(run_size(5000, events));

  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    os << "    {\"peers\": " << r.peers << ", \"events\": " << r.cached.events << ", ";
    append_mode(os, "uncached", r.uncached);
    os << ", ";
    append_mode(os, "cached", r.cached);
    os << ", ";
    append_mode(os, "parallel", r.parallel);
    os << ", ";
    append_mode(os, "lazy", r.lazy);
    os << ", ";
    append_mode(os, "hybrid", r.hybrid);
    os << ", \"cached_speedup_vs_uncached\": " << r.speedup
       << ", \"hybrid_byte_reduction\": " << r.hybrid_byte_reduction << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]";
  report.raw("results", os.str());
  for (const SizeResult& r : results) {
    const std::string n = std::to_string(r.peers);
    report.floor("cached_rps_" + n, r.cached.rounds_per_sec);
    report.ceiling("hybrid_bytes_per_round_" + n, r.hybrid.bytes_per_round());
    report.value("lazy_bytes_per_round_" + n, r.lazy.bytes_per_round());
  }
  report.value("cached_speedup_5000", results.back().speedup);
  report.value("hybrid_byte_reduction_5000", results.back().hybrid_byte_reduction);

  for (const SizeResult& r : results) {
    if (!equivalent(r.uncached, r.cached)) {
      report.fail(
          "cached run diverges from uncached at %zu peers (bytes %llu vs %llu, msgs %llu vs "
          "%llu, rounds %llu vs %llu, converged %zu vs %zu)",
          r.peers, static_cast<unsigned long long>(r.uncached.bytes),
          static_cast<unsigned long long>(r.cached.bytes),
          static_cast<unsigned long long>(r.uncached.messages),
          static_cast<unsigned long long>(r.cached.messages),
          static_cast<unsigned long long>(r.uncached.rounds),
          static_cast<unsigned long long>(r.cached.rounds), r.uncached.durations.size(),
          r.cached.durations.size());
    }
    // The lazy tentpole's convergence gates: every event still converges in
    // both new modes, and every directory ends consistent.
    check_converged("cached", r.peers, r.cached, report);
    check_converged("parallel", r.peers, r.parallel, report);
    check_converged("lazy", r.peers, r.lazy, report);
    check_converged("hybrid", r.peers, r.hybrid, report);
    check_lazy_counters(r.peers, r.lazy, report);
    // Convergence time must stay in eager's ballpark — the byte savings may
    // not come from propagating slower (gate 3's second half).
    if (r.hybrid.mean_convergence_s() > r.cached.mean_convergence_s() * 1.5) {
      report.fail("hybrid mean convergence %.1f s vs eager %.1f s at %zu peers (> 1.5x)",
                  r.hybrid.mean_convergence_s(), r.cached.mean_convergence_s(), r.peers);
    }
  }
  if (results.back().speedup < 3.0) {
    report.fail("cached only %.1fx vs uncached at 5000 peers (need >= 3x)",
                results.back().speedup);
  }
  if (results.back().hybrid_byte_reduction < 2.0) {
    report.fail("hybrid moves only %.2fx fewer bytes/round than eager at 5000 peers (need > 2x)",
                results.back().hybrid_byte_reduction);
  }
  return report.finish();
}
