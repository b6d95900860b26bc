/// \file e2e.cpp
/// Untraced program: the end-to-end metrics of one workload. It calls only
/// what a PlanetP application calls (Community/Node, LiveCluster/LiveNode,
/// their stats accessors), so a change to a layer's signature cannot break
/// it. See README.md for the workloads and metrics.
///
/// Usage: perfbench_e2e --workload search|publish|live_search --seed N
///                      --seconds S [--tiny] [--reference F] [--write-reference F]

#include <chrono>
#include <cstdio>
#include <exception>
#include <numeric>
#include <thread>

#include "harness/report.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workload.hpp"
#include "net/cluster.hpp"

using namespace perfbench;
using planetp::core::Community;
using planetp::core::Node;

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// "<prefix>_p50_ms" and "<prefix>_p99_ms" of \p samples: nearest-rank
/// percentiles over the whole run. A p99 needs ten samples beyond it; with
/// fewer (tiny runs) it is reported anyway and flagged on stderr.
void add_percentiles(Report& r, const std::string& prefix, const std::vector<double>& samples) {
  if (supported_percentile(samples.size()) < 9900) {
    std::fprintf(stderr, "note: %s p99 rests on %zu samples (< 10 beyond it)\n",
                 prefix.c_str(), samples.size());
  }
  r.add(prefix + "_p50_ms", percentile(samples, 5000), "ms");
  r.add(prefix + "_p99_ms", percentile(samples, 9900), "ms");
}

double mean_recall(const std::vector<double>& per_query) {
  std::vector<double> judged;
  for (double r : per_query) {
    if (r >= 0.0) judged.push_back(r);
  }
  return mean(judged);
}

void report_setup_publishes(Report& r, const Setup& s, std::size_t docs) {
  add_percentiles(r, "publish", s.publish_ms);
  r.add("publish_docs_per_s", static_cast<double>(docs) / secs(s.publish_ns + s.step_ns), "1/s");
  for (std::size_t i = 0; i < docs; ++i) r.attempt(i < s.vis.visible_s().size());
}

// ---------------------------------------------------------------------------
// search: read-only closed loop of ranked queries over a converged community
// ---------------------------------------------------------------------------
void run_search(const Options& opts, const Shape& shape, Report& r) {
  const Corpus corpus = make_corpus(shape.preload_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> docs(shape.preload_docs);
  std::iota(docs.begin(), docs.end(), 0u);
  Setup s = set_up(corpus, shape.peers, opts.seed, docs);
  r.attempt(s.converged);
  Community& c = *s.world.community;

  std::unordered_map<std::size_t, Answer> reference;
  const bool check_reference =
      opts.seed == kDefaultSeed && !opts.tiny && !opts.reference.empty();
  if (check_reference) reference = read_reference(opts.reference);

  // Answers do not depend on the searcher in a converged community, so the
  // first answer to each query is the one every later answer must equal.
  std::unordered_map<std::size_t, Answer> first;
  std::vector<double> recall(corpus.queries.size(), -1.0);
  std::vector<double> latency_ms;
  std::int64_t busy_ns = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || i < shape.min_queries; ++i) {
    const std::size_t q = query_at(corpus, i);
    Node& searcher = c.node(static_cast<planetp::core::PeerId>(searcher_at(corpus, i, shape.peers)));
    const std::int64_t t0 = now_ns();
    const auto hits = searcher.ranked_search(corpus.queries[q], shape.k);
    const std::int64_t ns = now_ns() - t0;
    busy_ns += ns;
    latency_ms.push_back(ms(ns));

    const Answer answer = answer_of(hits);
    bool ok = plausible_answer(corpus, s.world.published, q, shape.k, hits);
    const auto [it, fresh] = first.emplace(q, answer);
    if (fresh) {
      recall[q] = recall_of(corpus, s.world.published, q, answer);
      if (check_reference) ok = ok && reference.count(q) > 0 && reference.at(q) == answer;
    } else {
      ok = ok && it->second == answer;
    }
    r.attempt(ok);
  }
  if (!opts.write_reference.empty()) write_reference(opts.write_reference, first);

  r.add("setup_s", s.setup_s, "s");
  add_percentiles(r, "query", latency_ms);
  r.add("query_qps", static_cast<double>(latency_ms.size()) / secs(busy_ns), "1/s");
  r.add("recall", mean_recall(recall), "fraction");
  report_setup_publishes(r, s, docs.size());
}

// ---------------------------------------------------------------------------
// publish: a stream of publishes, each followed by one ranked query and a
// 250 ms gossip step, drained until every publish is visible
// ---------------------------------------------------------------------------
void run_publish(const Options& opts, const Shape& shape, Report& r) {
  const Corpus corpus = make_corpus(shape.preload_docs + shape.stream_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> preload(shape.preload_docs);
  std::iota(preload.begin(), preload.end(), 0u);
  Setup s = set_up(corpus, shape.peers, opts.seed, preload);
  r.attempt(s.converged);
  Community& c = *s.world.community;
  Published& published = s.world.published;

  Visibility vis;
  std::vector<double> publish_ms;
  std::vector<double> latency_ms;
  std::vector<double> recall;
  std::int64_t publish_ns = 0;
  std::int64_t step_ns = 0;
  std::int64_t query_ns = 0;
  for (std::size_t j = 0; j < shape.stream_docs; ++j) {
    const auto d = static_cast<std::uint32_t>(shape.preload_docs + j);
    const std::string title = doc_title(d);
    const std::string body = doc_body(corpus.collection.docs[d]);
    Node& owner = c.node(corpus.owner[d]);
    std::int64_t t0 = now_ns();
    const auto id = owner.publish_text(title, body);
    std::int64_t ns = now_ns() - t0;
    publish_ns += ns;
    publish_ms.push_back(ms(ns));
    published.add(d, id);
    vis.published(owner.id(), self_version(owner), c.now());

    const std::size_t q = query_at(corpus, j);
    Node& searcher = c.node(static_cast<planetp::core::PeerId>(searcher_at(corpus, j, shape.peers)));
    t0 = now_ns();
    const auto hits = searcher.ranked_search(corpus.queries[q], shape.k);
    ns = now_ns() - t0;
    query_ns += ns;
    latency_ms.push_back(ms(ns));
    r.attempt(plausible_answer(corpus, published, q, shape.k, hits));
    recall.push_back(recall_of(corpus, published, q, answer_of(hits)));

    t0 = now_ns();
    c.step(kArrivalGap);
    step_ns += now_ns() - t0;
    vis.update(c);
  }
  const planetp::TimePoint drain_limit = c.now() + planetp::kHour;
  while (vis.pending() > 0 && c.now() < drain_limit) {
    const std::int64_t t0 = now_ns();
    c.step(kArrivalGap);
    step_ns += now_ns() - t0;
    vis.update(c);
  }
  for (std::size_t j = 0; j < shape.stream_docs; ++j) r.attempt(j < vis.visible_s().size());
  r.attempt(c.step_until_converged(planetp::kHour, kSetupStride));

  // Converged again, every peer must give the same answer bit for bit.
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    const auto a = static_cast<planetp::core::PeerId>(q % shape.peers);
    const auto b = static_cast<planetp::core::PeerId>((q + shape.peers / 2 + 1) % shape.peers);
    r.attempt(answer_of(c.node(a).ranked_search(corpus.queries[q], shape.k)) ==
              answer_of(c.node(b).ranked_search(corpus.queries[q], shape.k)));
  }

  // Every streamed document is found by a conjunctive search on three of its
  // terms from a peer other than its owner.
  for (std::size_t j = 0; j < shape.stream_docs; ++j) {
    const auto d = static_cast<std::uint32_t>(shape.preload_docs + j);
    const auto& terms = corpus.collection.docs[d].terms;
    std::string query;
    for (std::size_t t = 0; t < terms.size() && t < 3; ++t) {
      query += planetp::corpus::SynthCollection::term_string(terms[terms.size() - 1 - t].first);
      query += ' ';
    }
    const auto asker = static_cast<planetp::core::PeerId>((corpus.owner[d] + 1) % shape.peers);
    const auto result = c.node(asker).exhaustive_search(query);
    const auto want = published.doc_id[d];
    r.attempt(std::any_of(result.hits.begin(), result.hits.end(),
                          [&](const planetp::core::SearchHit& h) { return h.doc == want; }));
  }

  r.add("setup_s", s.setup_s, "s");
  add_percentiles(r, "query", latency_ms);
  r.add("query_qps", static_cast<double>(latency_ms.size()) / secs(query_ns), "1/s");
  r.add("recall", mean_recall(recall), "fraction");
  add_percentiles(r, "publish", publish_ms);
  r.add("publish_docs_per_s",
        static_cast<double>(shape.stream_docs) / secs(publish_ns + step_ns), "1/s");
}

// ---------------------------------------------------------------------------
// live_search: the same closed query loop over loopback TCP
// ---------------------------------------------------------------------------

/// The live client pauses this long between queries. Back to back, with the
/// client thread never sleeping, live latency drifts within a run (p50 from
/// ~0.4 to ~1 ms over a few seconds on a 4-core VM) and differs 2x between
/// runs of one seed; with the pause it holds within a few percent. The pause
/// is not counted in any latency or in query_qps.
constexpr std::chrono::microseconds kLiveThinkTime{300};
void run_live_search(const Options& opts, const Shape& shape, Report& r) {
  const Corpus corpus = make_corpus(shape.preload_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> docs(shape.preload_docs);
  std::iota(docs.begin(), docs.end(), 0u);

  // The in-process twin: the same documents on the same peers. Its answers
  // are what every live answer must equal. Built and dropped before the
  // live set-up so the two never share the timed window.
  std::vector<Answer> expected(corpus.queries.size());
  Published published;
  {
    World twin = make_world(corpus, shape.peers, docs, planetp::core::SyncMode::kGossipStep,
                            opts.seed, nullptr, {});
    r.attempt(twin.community->step_until_converged(planetp::kHour, kSetupStride));
    for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
      Node& searcher = twin.community->node(static_cast<planetp::core::PeerId>(q % shape.peers));
      const auto hits = searcher.ranked_search(corpus.queries[q], shape.k);
      r.attempt(plausible_answer(corpus, twin.published, q, shape.k, hits));
      expected[q] = answer_of(hits);
    }
    published = twin.published;
  }

  const std::int64_t t0 = now_ns();
  planetp::net::LiveCluster cluster(shape.peers, planetp::net::LiveNodeConfig{});
  std::vector<double> publish_ms;
  std::int64_t publish_ns = 0;
  for (std::uint32_t d : docs) {
    const std::string title = doc_title(d);
    const std::string body = doc_body(corpus.collection.docs[d]);
    const std::int64_t p0 = now_ns();
    const auto id = cluster.node(corpus.owner[d]).publish_text(title, body);
    const std::int64_t p1 = now_ns();
    publish_ns += p1 - p0;
    publish_ms.push_back(ms(p1 - p0));
    r.attempt(id.peer == corpus.owner[d] + 1 && published.find(id.peer - 1, id.local) == d);
  }
  const std::int64_t start0 = now_ns();
  cluster.start();
  bool visible = true;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    visible = visible && cluster.wait_for_version_all(static_cast<planetp::gossip::PeerId>(i + 1),
                                                      1, 10 * planetp::kSecond);
  }
  const std::int64_t t_visible = now_ns();
  r.attempt(visible);
  const double setup_s = secs(t_visible - t0);

  auto ask = [&](std::size_t i, std::vector<double>* latency, std::int64_t* busy) {
    const std::size_t q = query_at(corpus, i);
    auto& node = cluster.node(searcher_at(corpus, i, shape.peers));
    const std::int64_t q0 = now_ns();
    const auto hits = node.ranked_search(corpus.queries[q], shape.k);
    const std::int64_t ns = now_ns() - q0;
    if (latency != nullptr) {
      latency->push_back(ms(ns));
      *busy += ns;
    }
    bool ok = answer_of(hits) == expected[q];
    for (std::size_t h = 0; ok && h < hits.size(); ++h) {
      ok = hits[h].title == doc_title(static_cast<std::uint32_t>(
                                published.find(hits[h].peer - 1, hits[h].local)));
    }
    r.attempt(ok);
  };
  // Warm-up, untimed: one pass over the mix opens every connection and
  // fills each searcher's candidate cache.
  for (std::size_t i = 0; i < corpus.queries.size(); ++i) ask(i, nullptr, nullptr);
  std::vector<double> latency_ms;
  std::int64_t busy_ns = 0;
  const std::uint64_t rounds_before = cluster.total_rounds();
  const planetp::net::NetStats net_before = cluster.total_net_stats();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || i < shape.min_queries; ++i) {
    ask(i, &latency_ms, &busy_ns);
    std::this_thread::sleep_for(kLiveThinkTime);
  }
  const planetp::net::NetStats net = cluster.total_net_stats();
  std::fprintf(stderr, "live window: %zu queries, %llu gossip rounds, %llu connects, %llu closes\n",
               latency_ms.size(),
               static_cast<unsigned long long>(cluster.total_rounds() - rounds_before),
               static_cast<unsigned long long>(net.connects_ok - net_before.connects_ok),
               static_cast<unsigned long long>(net.closes - net_before.closes));
  cluster.stop();

  std::vector<double> recall;
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    recall.push_back(recall_of(corpus, published, q, expected[q]));
  }
  r.add("setup_s", setup_s, "s");
  add_percentiles(r, "query", latency_ms);
  r.add("query_qps", static_cast<double>(latency_ms.size()) / secs(busy_ns), "1/s");
  r.add("recall", mean_recall(recall), "fraction");
  add_percentiles(r, "publish", publish_ms);
  r.add("publish_docs_per_s",
        static_cast<double>(docs.size()) / secs(publish_ns + (t_visible - start0)), "1/s");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
  try {
    const Shape shape = shape_of(opts);
    Report report;
    if (opts.workload == "search") {
      run_search(opts, shape, report);
    } else if (opts.workload == "publish") {
      run_publish(opts, shape, report);
    } else {
      run_live_search(opts, shape, report);
    }
    report.add("rss_mb", peak_rss_mb(), "MiB");
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
