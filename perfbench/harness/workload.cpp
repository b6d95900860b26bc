#include "harness/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "corpus/placement.hpp"
#include "harness/spans.hpp"

namespace perfbench {

using planetp::core::Community;
using planetp::core::DocumentId;
using planetp::core::Node;
using planetp::corpus::SynthCollection;

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--reference") {
      o.reference = value();
    } else if (arg == "--write-reference") {
      o.write_reference = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload != "search" && o.workload != "publish" && o.workload != "live_search") {
    throw std::invalid_argument("--workload must be search, publish or live_search");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

Shape shape_of(const Options& opts) {
  Shape s;
  if (opts.workload == "search") {
    s = Shape{100, 10'000, 0, 10, 1000};
    if (opts.tiny) s = Shape{12, 300, 0, 10, 50};
  } else if (opts.workload == "publish") {
    s = Shape{100, 2'000, 2'000, 10, 0};
    if (opts.tiny) s = Shape{12, 150, 60, 10, 0};
  } else {
    // One node per core: the client thread plus the nodes' reactors share
    // the host, and more nodes than cores would measure the scheduler.
    const std::size_t cores = std::max(2u, std::thread::hardware_concurrency());
    s = Shape{cores, 3'000, 0, 100, 1000};
    if (opts.tiny) s = Shape{3, 200, 0, 100, 50};
  }
  return s;
}

Corpus make_corpus(std::size_t docs, std::size_t peers, std::uint64_t seed) {
  Corpus c;
  auto spec = planetp::corpus::preset_cacm();
  spec.num_docs = docs;
  spec.num_queries = kTopicQueries;
  spec.seed = seed;
  c.collection = planetp::corpus::generate(spec);
  planetp::Rng rng(seed ^ 0xb10adULL);

  // §7.3 Weibull placement under a fixed seed: the community's shape (how
  // many documents each peer shares) is part of the workload, like its peer
  // count. With 100 peers a fresh draw per seed moves the few large peers,
  // and with them every latency, by more than any regression bound; the
  // seed still decides which documents each peer holds.
  planetp::corpus::PlacementOptions placement;
  placement.seed = kPlacementSeed;
  c.owner = planetp::corpus::place_documents(docs, peers, placement);
  for (std::size_t i = 0; i + 1 < c.owner.size(); ++i) {
    std::swap(c.owner[i], c.owner[i + rng.below(c.owner.size() - i)]);
  }

  // Every other query gets one extra term from the collection's own Zipf
  // background: users type common words too, and such a term makes every
  // contacted peer score and ship hundreds of documents. The draws are
  // stratified — topic query q takes the term at a random point of its own
  // 1/n-wide slice of the Zipf CDF, the slices dealt out in seeded order — so
  // every seed's mix holds the same share of very common words and only which
  // words varies. Independent draws would let that share, and with it the
  // latency tail, swing by a fifth between seeds.
  const std::size_t nq = c.collection.queries.size();
  std::vector<double> cdf(spec.vocab_size);
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -spec.zipf_s);
    cdf[r] = total;
  }
  std::vector<std::size_t> slice(nq);
  std::iota(slice.begin(), slice.end(), std::size_t{0});
  for (std::size_t i = 0; i + 1 < nq; ++i) std::swap(slice[i], slice[i + rng.below(nq - i)]);
  for (std::size_t q = 0; q < nq; ++q) {
    const auto& terms = c.collection.queries[q].terms;
    std::string plain;
    for (auto t : terms) {
      if (!plain.empty()) plain += ' ';
      plain += SynthCollection::term_string(t);
    }
    const double u = (static_cast<double>(slice[q]) + rng.uniform()) / static_cast<double>(nq);
    auto broad = static_cast<planetp::corpus::TermId>(std::min<std::ptrdiff_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u * total) - cdf.begin(),
        static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    while (std::find(terms.begin(), terms.end(), broad) != terms.end()) ++broad;
    std::string with_broad = plain;
    with_broad += ' ';
    with_broad += SynthCollection::term_string(broad);
    c.queries.push_back(std::move(plain));
    c.queries.push_back(std::move(with_broad));
    c.query_topic_query.push_back(static_cast<std::uint32_t>(q));
    c.query_topic_query.push_back(static_cast<std::uint32_t>(q));
  }
  return c;
}

std::string doc_title(std::uint32_t doc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%u", doc);
  return buf;
}

std::string doc_body(const planetp::corpus::SynthDoc& doc) {
  std::string body;
  body.reserve(doc.length() * 8);
  for (const auto& [term, freq] : doc.terms) {
    const std::string t = SynthCollection::term_string(term);
    for (std::uint32_t i = 0; i < freq; ++i) {
      body += t;
      body += ' ';
    }
  }
  return body;
}

Answer answer_of(const std::vector<planetp::core::SearchHit>& hits) {
  Answer a;
  a.reserve(hits.size());
  for (const auto& h : hits) {
    a.push_back(AnswerHit{h.doc.peer, h.doc.local, std::bit_cast<std::uint64_t>(h.score)});
  }
  return a;
}

Answer answer_of(const std::vector<planetp::net::LiveHit>& hits) {
  Answer a;
  a.reserve(hits.size());
  for (const auto& h : hits) {
    a.push_back(AnswerHit{h.peer - 1, h.local, std::bit_cast<std::uint64_t>(h.score)});
  }
  return a;
}

std::unordered_map<std::size_t, Answer> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::unordered_map<std::size_t, Answer> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::size_t q = 0;
    if (!(ls >> q)) throw std::runtime_error("bad reference line: " + line);
    Answer& a = out[q];
    std::string hit;
    while (ls >> hit) {
      AnswerHit h;
      if (std::sscanf(hit.c_str(), "%u:%u:%lx", &h.peer, &h.local,
                      reinterpret_cast<unsigned long*>(&h.score_bits)) != 3) {
        throw std::runtime_error("bad reference hit: " + hit);
      }
      a.push_back(h);
    }
  }
  return out;
}

void write_reference(const std::string& path,
                     const std::unordered_map<std::size_t, Answer>& answers) {
  std::vector<std::size_t> keys;
  for (const auto& [q, a] : answers) keys.push_back(q);
  std::sort(keys.begin(), keys.end());
  std::ofstream out(path);
  out << "# query-mix index, then peer:local:score-bits per hit\n";
  for (std::size_t q : keys) {
    out << q;
    for (const AnswerHit& h : answers.at(q)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %u:%u:%016lx", h.peer, h.local,
                    static_cast<unsigned long>(h.score_bits));
      out << buf;
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

void Published::add(std::uint32_t doc, DocumentId id) {
  if (doc_id.size() <= doc) doc_id.resize(doc + 1, DocumentId{UINT32_MAX, 0});
  doc_id[doc] = id;
  doc_of[(static_cast<std::uint64_t>(id.peer) << 32) | id.local] = doc;
}

std::int64_t Published::find(std::uint32_t peer, std::uint32_t local) const {
  const auto it = doc_of.find((static_cast<std::uint64_t>(peer) << 32) | local);
  return it == doc_of.end() ? -1 : it->second;
}

namespace {

bool doc_has_term(const planetp::corpus::SynthDoc& doc, planetp::corpus::TermId t) {
  const auto it = std::lower_bound(doc.terms.begin(), doc.terms.end(),
                                   std::pair<planetp::corpus::TermId, std::uint32_t>{t, 0});
  return it != doc.terms.end() && it->first == t;
}

std::vector<planetp::corpus::TermId> query_terms(const std::string& query) {
  std::vector<planetp::corpus::TermId> out;
  std::istringstream in(query);
  std::string tok;
  while (in >> tok) out.push_back(static_cast<planetp::corpus::TermId>(std::stoul(tok.substr(1))));
  return out;
}

}  // namespace

bool plausible_answer(const Corpus& corpus, const Published& published, std::size_t query,
                      std::size_t k, const std::vector<planetp::core::SearchHit>& hits) {
  if (hits.size() > k) return false;
  const auto terms = query_terms(corpus.queries[query]);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const auto& h = hits[i];
    if (i > 0 && h.score > hits[i - 1].score) return false;
    const std::int64_t doc = published.find(h.doc.peer, h.doc.local);
    if (doc < 0 || h.title != doc_title(static_cast<std::uint32_t>(doc)) || h.xml.empty()) {
      return false;
    }
    const auto& synth = corpus.collection.docs[static_cast<std::size_t>(doc)];
    if (std::none_of(terms.begin(), terms.end(),
                     [&](planetp::corpus::TermId t) { return doc_has_term(synth, t); })) {
      return false;
    }
  }
  return true;
}

double recall_of(const Corpus& corpus, const Published& published, std::size_t query,
                 const Answer& answer) {
  const auto& relevant =
      corpus.collection.queries[corpus.query_topic_query[query]].relevant_docs;
  std::size_t judged = 0;
  for (std::uint32_t d : relevant) {
    if (d < published.doc_id.size() && published.doc_id[d].peer != UINT32_MAX) ++judged;
  }
  if (judged == 0) return -1.0;
  std::size_t found = 0;
  for (const AnswerHit& h : answer) {
    const std::int64_t doc = published.find(h.peer, h.local);
    if (doc >= 0 && relevant.count(static_cast<std::uint32_t>(doc)) > 0) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(judged);
}

std::uint64_t self_version(Node& node) {
  const auto* rec = node.protocol().directory().find(node.id());
  return rec == nullptr ? 0 : rec->version;
}

void Visibility::published(planetp::core::PeerId owner, std::uint64_t version,
                           planetp::TimePoint at) {
  by_owner_[owner].push_back(Pending{version, at});
  ++pending_count_;
}

void Visibility::update(Community& community) {
  const planetp::TimePoint now = community.now();
  for (auto it = by_owner_.begin(); it != by_owner_.end();) {
    auto& queue = it->second;
    // The lowest version every online peer holds; stop at the first peer
    // that lacks even the oldest pending version.
    std::uint64_t held = UINT64_MAX;
    for (std::size_t p = 0; p < community.size() && held >= queue.front().version; ++p) {
      const auto peer = static_cast<planetp::core::PeerId>(p);
      if (!community.is_online(peer)) continue;
      const auto* rec = community.node(peer).protocol().directory().find(it->first);
      held = std::min<std::uint64_t>(held, rec == nullptr ? 0 : rec->version);
    }
    std::size_t done = 0;
    while (done < queue.size() && queue[done].version <= held) {
      visible_s_.push_back(static_cast<double>(now - queue[done].at) / 1e6);
      ++done;
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(done));
    pending_count_ -= done;
    it = queue.empty() ? by_owner_.erase(it) : std::next(it);
  }
}

World make_world(const Corpus& corpus, std::size_t peers, const std::vector<std::uint32_t>& docs,
                 planetp::core::SyncMode mode, std::uint64_t seed, Visibility* vis,
                 const PublishHook& on_publish) {
  World w;
  w.community = std::make_unique<Community>(planetp::core::NodeConfig{}, mode, seed);
  for (std::size_t p = 0; p < peers; ++p) w.community->create_node();
  for (std::uint32_t d : docs) {
    const auto& synth = corpus.collection.docs[d];
    const std::string title = doc_title(d);
    const std::string body = doc_body(synth);
    Node& owner = w.community->node(corpus.owner[d]);
    const std::int64_t t0 = now_ns();
    const DocumentId id = owner.publish_text(title, body);
    const std::int64_t ns = now_ns() - t0;
    w.published.add(d, id);
    if (vis != nullptr) vis->published(owner.id(), self_version(owner), w.community->now());
    if (on_publish) on_publish(d, owner, id, ns);
  }
  return w;
}

bool converge(Community& community, Visibility& vis, std::int64_t& step_ns) {
  constexpr planetp::Duration kLimit = 4 * planetp::kHour;
  const planetp::TimePoint deadline = community.now() + kLimit;
  while (vis.pending() > 0 && community.now() < deadline) {
    const std::int64_t t0 = now_ns();
    community.step(kSetupStride);
    step_ns += now_ns() - t0;
    vis.update(community);
  }
  const std::int64_t t0 = now_ns();
  const bool ok = community.step_until_converged(kLimit, kSetupStride);
  step_ns += now_ns() - t0;
  return ok && vis.pending() == 0;
}

Setup set_up(const Corpus& corpus, std::size_t peers, std::uint64_t seed,
             const std::vector<std::uint32_t>& docs, const PublishHook& extra) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.world = make_world(corpus, peers, docs, planetp::core::SyncMode::kGossipStep, seed, &s.vis,
                       [&](std::uint32_t doc, Node& owner, DocumentId id, std::int64_t ns) {
                         s.publish_ms.push_back(static_cast<double>(ns) / 1e6);
                         s.publish_ns += ns;
                         if (extra) extra(doc, owner, id, ns);
                       });
  s.converged = converge(*s.world.community, s.vis, s.step_ns);
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return s;
}

}  // namespace perfbench
