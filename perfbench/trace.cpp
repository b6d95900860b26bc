/// \file trace.cpp
/// Traced program: the per-layer metrics of one workload. It runs the same
/// workload as perfbench_e2e, but times the benchmark's own calls into each
/// module's public functions with in-memory spans (harness/spans.hpp):
///
///   query   text.analyze -> core.view -> search.tfipf (with each
///           search.contact inside it) -> core.fetch per result; this
///           decomposition must reproduce Node::ranked_search byte for byte,
///           and every query also runs untraced so the two can be compared
///           (trace.overhead_us).
///   publish Node::publish_text, plus the same document published into a
///           shadow per-peer index::DataStore (index.publish), whose filter
///           is materialized (bloom.materialize) and encoded (bloom.encode).
///   gossip  Community::step, with GossipStats deltas per published doc.
///   net     LiveCluster::total_net_stats() deltas per live query, and live
///           latency minus an in-process twin holding the same documents.
///
/// Every per-layer metric is printed for every workload. The in-process
/// workloads take net.* from a short live phase on the live_search inputs.
///
/// Usage: perfbench_trace --workload search|publish|live_search --seed N
///                        --seconds S [--tiny] [--trace-out spans.jsonl]

#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <unordered_set>

#include "bloom/wire.hpp"
#include "harness/report.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workload.hpp"
#include "index/data_store.hpp"
#include "index/document.hpp"
#include "net/cluster.hpp"
#include "search/distributed.hpp"
#include "util/byte_buffer.hpp"

using namespace perfbench;
using planetp::core::Community;
using planetp::core::Node;
using planetp::core::SearchHit;

namespace {

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counters the query decomposition accumulates.
struct QueryCounts {
  std::size_t queries = 0;
  std::size_t contacts = 0;
  std::size_t docs_shipped = 0;
  std::size_t useful_contacts = 0;
  std::size_t results = 0;
};

/// Node::ranked_search, spelled out through the modules it calls, with a span
/// around each call. Must return exactly what ranked_search returns.
std::vector<SearchHit> traced_ranked_search(Community& community, Node& node,
                                            const std::string& query, std::size_t k,
                                            Tracer& tr, std::uint32_t op, QueryCounts& counts) {
  ScopedSpan root(tr, "query", op);
  ++counts.queries;
  std::vector<std::string> terms;
  {
    ScopedSpan s(tr, "text.analyze", op);
    terms = node.store().analyzer().analyze(query);
  }
  if (terms.empty()) return {};

  std::vector<planetp::search::PeerFilter> views;
  std::vector<std::shared_ptr<const planetp::bloom::BloomFilter>> pins;
  {
    ScopedSpan s(tr, "core.view", op);
    node.protocol().directory().for_each([&](const planetp::gossip::PeerRecord& record) {
      if (record.id == node.id()) return;
      auto f = node.filter_of(record.id);
      if (f != nullptr && record.online) {
        views.push_back(planetp::search::PeerFilter{record.id, f.get(), record.suspicion});
        pins.push_back(std::move(f));
      }
    });
    auto own = node.filter_of(node.id());
    views.push_back(planetp::search::PeerFilter{node.id(), own.get()});
    pins.push_back(std::move(own));
  }

  const auto& cfg = node.config();
  planetp::search::DistributedSearchOptions opts;
  opts.k = k;
  opts.group_size = cfg.search_group_size;
  opts.stopping = cfg.stopping;
  opts.retry = cfg.search_retry;
  opts.deadline = cfg.search_deadline;
  opts.hedge_threshold = cfg.search_hedge_threshold;
  opts.seed = static_cast<std::uint64_t>(node.id()) << 32 | node.protocol().directory().size();
  opts.cache = &node.candidate_cache();

  const auto contact = [&](std::uint32_t peer,
                           const std::unordered_map<std::string, double>& weights)
      -> planetp::search::PeerSearchResult {
    ScopedSpan s(tr, "search.contact", op);
    planetp::search::PeerSearchResult r =
        peer == node.id() ? planetp::search::PeerSearchResult(node.handle_ranked_query(weights))
                          : community.contact_ranked(node.id(), peer, weights);
    ++counts.contacts;
    counts.docs_shipped += r.docs.size();
    return r;
  };
  planetp::search::DistributedSearchResult result;
  {
    ScopedSpan s(tr, "search.tfipf", op);
    result = planetp::search::tfipf_search(terms, views, contact, opts);
  }

  for (const auto& outcome : result.outcomes) {
    if (outcome.peer == node.id()) continue;
    if (outcome.status == planetp::search::ContactStatus::kOk) {
      node.protocol().directory().record_query_success(outcome.peer);
    } else {
      node.protocol().directory().record_query_failure(outcome.peer, community.now());
    }
  }
  std::unordered_set<std::uint32_t> useful;
  for (const auto& d : result.docs) useful.insert(d.doc.peer);
  counts.useful_contacts += useful.size();
  counts.results += result.docs.size();

  std::vector<SearchHit> hits;
  hits.reserve(result.docs.size());
  for (const auto& d : result.docs) {
    ScopedSpan s(tr, "core.fetch", op);
    SearchHit hit;
    hit.doc = d.doc;
    hit.score = d.score;
    const planetp::index::Document* doc =
        d.doc.peer == node.id() ? node.store().document(d.doc) : community.fetch_document(d.doc);
    if (doc != nullptr) {
      hit.title = doc->title;
      hit.xml = doc->xml_source;
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

bool same_hits(const std::vector<SearchHit>& a, const std::vector<SearchHit>& b) {
  if (answer_of(a) != answer_of(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].title != b[i].title || a[i].xml != b[i].xml) return false;
  }
  return true;
}

/// Shadow per-peer stores: the same documents, in the same order, published
/// straight into index::DataStore so the index and Bloom layers can be timed
/// on their own. Every \p sample_every-th publish also materializes, encodes
/// and diffs the filter.
class Shadow {
 public:
  Shadow(std::size_t peers, std::size_t sample_every) : sample_every_(sample_every) {
    for (std::size_t p = 0; p < peers; ++p) {
      stores_.push_back(std::make_unique<planetp::index::DataStore>(static_cast<std::uint32_t>(p)));
    }
  }

  /// \p node_ns is the wall time the node took to publish the same document.
  void publish(Tracer& tr, std::uint32_t op, std::uint32_t peer, const std::string& title,
               const std::string& body, std::int64_t node_ns) {
    planetp::index::DataStore& store = *stores_[peer];
    std::string xml = planetp::index::wrap_text_as_xml(title, body);
    const bool sample = count_++ % sample_every_ == 0;
    planetp::bloom::BloomFilter before;
    if (sample) before = store.bloom_filter();
    std::int64_t t0 = now_ns();
    {
      ScopedSpan s(tr, "index.publish", op);
      store.publish(std::move(xml));
    }
    const std::int64_t index_ns = now_ns() - t0;
    index_ns_ += index_ns;
    node_self_ns_ += node_ns - index_ns;
    ++publishes_;
    if (!sample) return;
    planetp::bloom::BloomFilter after;
    {
      ScopedSpan s(tr, "bloom.materialize", op);
      after = store.bloom_filter();
    }
    planetp::ByteWriter full;
    {
      ScopedSpan s(tr, "bloom.encode", op);
      planetp::bloom::encode_filter(full, after);
    }
    planetp::ByteWriter diff;
    planetp::bloom::encode_diff(diff, after.diff_from(before));
    full_bytes_ += full.size();
    diff_bytes_ += diff.size();
    ++samples_;
  }

  std::uint64_t merges() const {
    std::uint64_t m = 0;
    for (const auto& s : stores_) m += s->epochs().stats().merges_completed;
    return m;
  }

  /// Forget what was measured so far (the stores keep their documents) and
  /// sample every \p sample_every-th publish from now on.
  void start_measuring(std::size_t sample_every) {
    *this = Shadow(std::move(stores_), sample_every, merges());
  }

  void report(Report& r, const std::map<std::string, Tracer::Total>& totals) const {
    const double n = static_cast<double>(publishes_);
    const double k = static_cast<double>(samples_);
    auto per_span = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : us(it->second.self_ns) / static_cast<double>(it->second.count);
    };
    r.add("index.publish_us", ratio(us(index_ns_), n), "us");
    r.add("index.merges_per_kdoc",
          ratio(static_cast<double>(merges() - merges_base_) * 1000.0, n), "count");
    r.add("core.publish_self_us", ratio(us(node_self_ns_), n), "us");
    r.add("bloom.materialize_us", per_span("bloom.materialize"), "us");
    r.add("bloom.encode_us", per_span("bloom.encode"), "us");
    r.add("bloom.filter_kb", ratio(static_cast<double>(full_bytes_) / 1024.0, k), "KiB");
    r.add("bloom.diff_kb", ratio(static_cast<double>(diff_bytes_) / 1024.0, k), "KiB");
  }

 private:
  Shadow(std::vector<std::unique_ptr<planetp::index::DataStore>> stores, std::size_t sample_every,
         std::uint64_t merges_base)
      : stores_(std::move(stores)), sample_every_(sample_every), merges_base_(merges_base) {}

  std::vector<std::unique_ptr<planetp::index::DataStore>> stores_;
  std::size_t sample_every_;
  std::uint64_t merges_base_ = 0;
  std::size_t count_ = 0;
  std::size_t publishes_ = 0;
  std::size_t samples_ = 0;
  std::int64_t index_ns_ = 0;
  std::int64_t node_self_ns_ = 0;
  std::uint64_t full_bytes_ = 0;
  std::uint64_t diff_bytes_ = 0;
};

/// Community-wide counters read before and after a phase.
struct Counters {
  planetp::gossip::GossipStats gossip;
  std::uint64_t term_hits = 0;
  std::uint64_t term_misses = 0;
  std::uint64_t cache_fixes = 0;

  static Counters read(Community& c) {
    Counters out;
    for (std::size_t p = 0; p < c.size(); ++p) {
      Node& n = c.node(static_cast<planetp::core::PeerId>(p));
      out.gossip += n.gossip_stats();
      const auto cs = n.candidate_cache().stats();
      out.term_hits += cs.term_hits;
      out.term_misses += cs.term_misses;
      out.cache_fixes += cs.surgical_fixes + cs.full_reprobes;
    }
    return out;
  }
};

void report_gossip(Report& r, const Counters& before, const Counters& after, std::int64_t step_ns,
                   std::size_t docs) {
  const double n = static_cast<double>(docs);
  const double payloads =
      static_cast<double>(after.gossip.payloads_sent - before.gossip.payloads_sent);
  const double bytes =
      static_cast<double>(after.gossip.payload_bytes_sent - before.gossip.payload_bytes_sent);
  const double dups =
      static_cast<double>(after.gossip.duplicate_payloads - before.gossip.duplicate_payloads);
  r.add("gossip.step_us_per_doc", ratio(us(step_ns), n), "us");
  r.add("gossip.payloads_per_doc", ratio(payloads, n), "count");
  r.add("gossip.payload_kb_per_doc", ratio(bytes / 1024.0, n), "KiB");
  r.add("gossip.duplicate_frac", ratio(dups, payloads), "fraction");
  r.add("search.cache_fixes_per_doc",
        ratio(static_cast<double>(after.cache_fixes - before.cache_fixes), n), "count");
}

void report_queries(Report& r, const std::map<std::string, Tracer::Total>& totals,
                    const QueryCounts& qc, const Counters& before, const Counters& after) {
  auto self_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : us(it->second.self_ns);
  };
  auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double queries = static_cast<double>(qc.queries);
  const double contacts = static_cast<double>(qc.contacts);
  r.add("text.analyze_us", ratio(self_us("text.analyze"), count("text.analyze")), "us");
  r.add("core.view_us", ratio(self_us("core.view"), count("core.view")), "us");
  r.add("core.fetch_us", ratio(self_us("core.fetch"), count("core.fetch")), "us");
  r.add("search.self_us", ratio(self_us("search.tfipf"), count("search.tfipf")), "us");
  r.add("search.contact_us", ratio(self_us("search.contact"), count("search.contact")), "us");
  r.add("search.contacts_per_query", ratio(contacts, queries), "count");
  r.add("search.docs_per_contact", ratio(static_cast<double>(qc.docs_shipped), contacts), "count");
  r.add("search.shipped_per_result",
        ratio(static_cast<double>(qc.docs_shipped), static_cast<double>(qc.results)), "ratio");
  r.add("search.useful_contact_frac", ratio(static_cast<double>(qc.useful_contacts), contacts),
        "fraction");
  const double hits = static_cast<double>(after.term_hits - before.term_hits);
  const double misses = static_cast<double>(after.term_misses - before.term_misses);
  r.add("search.cache_hit_frac", ratio(hits, hits + misses), "fraction");
}

/// Virtual seconds from publish to visible everywhere (the paper's
/// propagation time): deterministic for a seed, so a per-layer figure.
void report_visible(Report& r, const Visibility& vis) {
  const auto& v = vis.visible_s();
  r.add("gossip.visible_p50_s", v.empty() ? 0.0 : percentile(v, 5000), "s");
  r.add("gossip.visible_p99_s", v.empty() ? 0.0 : percentile(v, 9900), "s");
}

/// One traced query plus the untraced call it must reproduce, in alternating
/// order so neither always runs on the warmer cache.
struct Paired {
  std::vector<double> traced_us;
  std::vector<double> untraced_us;

  bool run(Community& c, Node& searcher, const std::string& query, std::size_t k, Tracer& tr,
           std::uint32_t op, QueryCounts& qc) {
    std::vector<SearchHit> traced;
    std::vector<SearchHit> plain;
    auto traced_call = [&] {
      const std::int64_t t0 = now_ns();
      traced = traced_ranked_search(c, searcher, query, k, tr, op, qc);
      traced_us.push_back(us(now_ns() - t0));
    };
    auto plain_call = [&] {
      const std::int64_t t0 = now_ns();
      plain = searcher.ranked_search(query, k);
      untraced_us.push_back(us(now_ns() - t0));
    };
    // Queries alternate plain/broad, so alternate the order in pairs.
    if (op / 2 % 2 == 0) {
      traced_call();
      plain_call();
    } else {
      plain_call();
      traced_call();
    }
    return same_hits(traced, plain);
  }

  double overhead_us() const {
    return traced_us.empty() ? 0.0 : median(traced_us) - median(untraced_us);
  }
};

/// Traced set-up publishing: the node's publish plus the shadow store's.
PublishHook shadow_hook(const Corpus& corpus, Shadow& shadow, Tracer& tr) {
  return [&](std::uint32_t doc, Node& owner, planetp::core::DocumentId, std::int64_t ns) {
    shadow.publish(tr, doc, owner.id(), doc_title(doc), doc_body(corpus.collection.docs[doc]), ns);
  };
}

// ---------------------------------------------------------------------------

/// A LiveCluster and its in-process twin, both holding the live_search
/// workload's documents, asked the same queries in turn. The twin sets the
/// expected answers; net.overhead_us is live minus twin latency. With
/// \p layers (the live_search workload) the layers below net are traced on the
/// twin and reported too; without (the in-process workloads) only net.* is
/// reported, from \p seconds of queries.
void run_live(const Options& opts, double seconds, Report& r, Tracer& tr, bool layers) {
  Options live_opts = opts;
  live_opts.workload = "live_search";
  const Shape shape = shape_of(live_opts);
  const Corpus corpus = make_corpus(shape.preload_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> docs(shape.preload_docs);
  std::iota(docs.begin(), docs.end(), 0u);

  Shadow shadow(layers ? shape.peers : 0, 3);
  Setup twin = set_up(corpus, shape.peers, opts.seed, docs,
                      layers ? shadow_hook(corpus, shadow, tr) : PublishHook{});
  r.attempt(twin.converged);
  Community& c = *twin.world.community;
  const Counters after_setup = Counters::read(c);
  std::vector<Answer> expected(corpus.queries.size());
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    expected[q] = answer_of(c.node(static_cast<planetp::core::PeerId>(q % shape.peers))
                                .ranked_search(corpus.queries[q], shape.k));
  }

  planetp::net::LiveCluster cluster(shape.peers, planetp::net::LiveNodeConfig{});
  for (std::uint32_t d : docs) {
    cluster.node(corpus.owner[d]).publish_text(doc_title(d), doc_body(corpus.collection.docs[d]));
  }
  cluster.start();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    r.attempt(cluster.wait_for_version_all(static_cast<planetp::gossip::PeerId>(i + 1), 1,
                                           10 * planetp::kSecond));
  }
  auto live_query = [&](std::size_t i, std::vector<double>* latency_us) {
    const std::size_t q = query_at(corpus, i);
    auto& node = cluster.node(searcher_at(corpus, i, shape.peers));
    const std::int64_t t0 = now_ns();
    const auto hits = node.ranked_search(corpus.queries[q], shape.k);
    if (latency_us != nullptr) latency_us->push_back(us(now_ns() - t0));
    r.attempt(answer_of(hits) == expected[q]);
  };
  for (std::size_t i = 0; i < corpus.queries.size(); ++i) live_query(i, nullptr);

  const Counters before = Counters::read(c);
  const planetp::net::NetStats net_before = cluster.total_net_stats();
  QueryCounts qc;
  Paired paired;
  std::vector<double> live_us;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || i < shape.min_queries; ++i) {
    const auto op = static_cast<std::uint32_t>(i);
    {
      ScopedSpan span(tr, "net.query", op);
      live_query(i, &live_us);
    }
    Node& searcher = c.node(static_cast<planetp::core::PeerId>(searcher_at(corpus, i, shape.peers)));
    const std::string& query = corpus.queries[query_at(corpus, i)];
    if (layers) {
      r.attempt(paired.run(c, searcher, query, shape.k, tr, op, qc));
    } else {
      const std::int64_t t0 = now_ns();
      searcher.ranked_search(query, shape.k);
      paired.untraced_us.push_back(us(now_ns() - t0));
    }
  }
  const planetp::net::NetStats net = cluster.total_net_stats();
  const Counters after = Counters::read(c);
  cluster.stop();

  if (layers) {
    const auto totals = tr.totals();
    report_queries(r, totals, qc, before, after);
    shadow.report(r, totals);
    report_gossip(r, Counters{}, after_setup, twin.step_ns, docs.size());
    report_visible(r, twin.vis);
  }
  const double n = static_cast<double>(live_us.size());
  r.add("net.bytes_out_per_query",
        ratio(static_cast<double>(net.bytes_out - net_before.bytes_out), n), "B");
  r.add("net.frames_out_per_query",
        ratio(static_cast<double>(net.frames_out - net_before.frames_out), n), "count");
  r.add("net.connects",
        static_cast<double>(net.connects_ok + net.connects_failed -
                            net_before.connects_ok - net_before.connects_failed),
        "count");
  auto drops = [](const planetp::net::NetStats& x) {
    return x.drops_backpressure + x.drops_backoff + x.drops_unroutable + x.rpc_rejected_full +
           x.oversize_closes + x.idle_reaped;
  };
  r.add("net.drops", static_cast<double>(drops(net) - drops(net_before)), "count");
  r.add("net.overhead_us", median(live_us) - median(paired.untraced_us), "us");
  if (layers) r.add("trace.overhead_us", paired.overhead_us(), "us");
}

/// The in-process workloads' queries never cross the network, so their
/// traced runs end with this long a live phase on the live_search
/// workload's inputs for the net.* figures (after their own totals were
/// taken, so its spans count toward nothing else).
constexpr double kLivePhaseSeconds = 2.0;

void run_search(const Options& opts, const Shape& shape, Report& r, Tracer& tr) {
  const Corpus corpus = make_corpus(shape.preload_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> docs(shape.preload_docs);
  std::iota(docs.begin(), docs.end(), 0u);
  Shadow shadow(shape.peers, 10);
  Setup s = set_up(corpus, shape.peers, opts.seed, docs, shadow_hook(corpus, shadow, tr));
  r.attempt(s.converged);
  Community& c = *s.world.community;
  const Counters after_setup = Counters::read(c);

  QueryCounts qc;
  Paired paired;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || i < shape.min_queries; ++i) {
    Node& searcher = c.node(static_cast<planetp::core::PeerId>(searcher_at(corpus, i, shape.peers)));
    r.attempt(paired.run(c, searcher, corpus.queries[query_at(corpus, i)], shape.k, tr,
                         static_cast<std::uint32_t>(i), qc));
  }
  const Counters end = Counters::read(c);

  const auto totals = tr.totals();
  report_queries(r, totals, qc, after_setup, end);
  shadow.report(r, totals);
  report_gossip(r, Counters{}, after_setup, s.step_ns, docs.size());
  report_visible(r, s.vis);
  r.add("trace.overhead_us", paired.overhead_us(), "us");

  run_live(opts, kLivePhaseSeconds, r, tr, false);
}

void run_publish(const Options& opts, const Shape& shape, Report& r, Tracer& tr) {
  const Corpus corpus = make_corpus(shape.preload_docs + shape.stream_docs, shape.peers, opts.seed);
  std::vector<std::uint32_t> preload(shape.preload_docs);
  std::iota(preload.begin(), preload.end(), 0u);
  // The preload goes into the shadow stores too, so their index state
  // matches the nodes', but only the stream is measured.
  Shadow shadow(shape.peers, SIZE_MAX);
  Tracer setup_tr;
  Setup s = set_up(corpus, shape.peers, opts.seed, preload, shadow_hook(corpus, shadow, setup_tr));
  r.attempt(s.converged);
  Community& c = *s.world.community;

  shadow.start_measuring(1);
  const Counters before = Counters::read(c);
  QueryCounts qc;
  Paired paired;
  Visibility vis;
  std::int64_t step_ns = 0;
  auto step = [&](std::uint32_t op) {
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tr, "gossip.step", op);
      c.step(kArrivalGap);
    }
    step_ns += now_ns() - t0;
    vis.update(c);
  };
  for (std::size_t j = 0; j < shape.stream_docs; ++j) {
    const auto d = static_cast<std::uint32_t>(shape.preload_docs + j);
    const auto op = static_cast<std::uint32_t>(j);
    const std::string title = doc_title(d);
    const std::string body = doc_body(corpus.collection.docs[d]);
    Node& owner = c.node(corpus.owner[d]);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tr, "core.publish", op);
      owner.publish_text(title, body);
    }
    const std::int64_t ns = now_ns() - t0;
    vis.published(owner.id(), self_version(owner), c.now());
    shadow.publish(tr, op, owner.id(), title, body, ns);

    Node& searcher = c.node(static_cast<planetp::core::PeerId>(searcher_at(corpus, j, shape.peers)));
    r.attempt(paired.run(c, searcher, corpus.queries[query_at(corpus, j)], shape.k, tr, op, qc));
    step(op);
  }
  const planetp::TimePoint drain_limit = c.now() + planetp::kHour;
  while (vis.pending() > 0 && c.now() < drain_limit) step(static_cast<std::uint32_t>(shape.stream_docs));
  r.attempt(vis.pending() == 0);
  const Counters after = Counters::read(c);

  const auto totals = tr.totals();
  report_queries(r, totals, qc, before, after);
  shadow.report(r, totals);
  report_gossip(r, before, after, step_ns, shape.stream_docs);
  report_visible(r, vis);
  r.add("trace.overhead_us", paired.overhead_us(), "us");
  run_live(opts, kLivePhaseSeconds, r, tr, false);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  }
  try {
    const Shape shape = shape_of(opts);
    Report report;
    Tracer tracer;
    if (opts.workload == "search") {
      run_search(opts, shape, report, tracer);
    } else if (opts.workload == "publish") {
      run_publish(opts, shape, report, tracer);
    } else {
      run_live(opts, opts.seconds, report, tracer, true);
    }
    if (!opts.trace_out.empty()) {
      std::ofstream out(opts.trace_out);
      tracer.write_jsonl(out);
      if (!out) throw std::runtime_error("cannot write " + opts.trace_out);
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
