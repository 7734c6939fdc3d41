#pragma once

// RBAY core wire messages: the anycast candidate buffer (Fig. 7, step 3-4)
// and the cross-site query protocol spoken between query interfaces and
// site gateways ("border routers").

#include <optional>
#include <string>
#include <vector>

#include "pastry/messages.hpp"
#include "query/reservation.hpp"
#include "query/sql.hpp"
#include "scribe/messages.hpp"
#include "util/sim_time.hpp"

namespace rbay::core {

/// One discovered (and reserved) resource node.
struct Candidate {
  pastry::NodeRef node;
  double sort_value = 0.0;  // value of the GROUPBY attribute, if any
  /// False when the GROUPBY attribute is missing or non-numeric: the
  /// candidate then ranks after every numeric one, in either order.
  bool has_sort_value = false;
};

/// One site's share of a query (Fig. 7 steps 1-4): what the query
/// interface runs in its own site and ships to every other site's gateway.
struct SiteJob {
  query::QueryId query_id;  // reservation holder identity
  int attempt = 1;
  bool count_only = false;
  int k = 1;
  std::string get_payload;  // forwarded to onGet (e.g. password)
  std::vector<query::Predicate> predicates;
  std::optional<std::string> group_by;
  util::SimTime hold = util::SimTime::millis(500);

  [[nodiscard]] std::size_t predicate_bytes() const {
    std::size_t size = 0;
    for (const auto& p : predicates) size += 24 + p.attribute.size() + p.literal.wire_size();
    return size;
  }
};

/// One site's answer to a SiteJob.
struct SiteResult {
  net::SiteId site = 0;
  std::vector<Candidate> candidates;
  int visited = 0;     // tree members the anycast walked
  double count = 0.0;  // for count-only queries
  /// Degraded read: the count came from a promoted root's replicated
  /// snapshot, `staleness` sim-time old.
  bool stale = false;
  util::SimTime staleness = util::SimTime::zero();
  /// Answered (at least partly) from the size table's stored answers.
  bool cached = false;
  /// A definitive no from this site, which a retry cannot change: no
  /// predicate resolves to a tree, or a probed tree's root answered on
  /// this attempt that the tree is empty.
  bool trees_empty = false;
};

/// The anycast payload: "this anycast message has a buffer of k empty
/// entries" (§III.D step 3).  Members fill entries as the DFS visits them.
struct CandidatePayload final : scribe::TaggedAnycastPayload<CandidatePayload> {
  SiteJob job;
  std::vector<Candidate> found;

  [[nodiscard]] std::size_t wire_size() const override {
    return 64 + job.get_payload.size() + found.size() * 32 + job.predicate_bytes();
  }
  [[nodiscard]] std::unique_ptr<scribe::AnycastPayload> clone() const override {
    return std::make_unique<CandidatePayload>(*this);
  }
};

/// Query interface → remote site gateway: run this query inside your site.
/// The reply's `request_id` is `job.query_id.seq`.
struct SiteQueryRequest final : pastry::TaggedMessage<SiteQueryRequest> {
  pastry::NodeRef origin;
  SiteJob job;

  [[nodiscard]] std::size_t wire_size() const override {
    return 96 + job.get_payload.size() + job.predicate_bytes();
  }
  [[nodiscard]] const char* type_name() const override { return "rbay.SiteQueryRequest"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SiteQueryRequest>(*this);
  }
};

/// Gateway → query interface: candidates found in my site.
struct SiteQueryReply final : pastry::TaggedMessage<SiteQueryReply> {
  std::uint64_t request_id = 0;
  int attempt = 0;
  SiteResult result;

  [[nodiscard]] std::size_t wire_size() const override {
    return 41 + result.candidates.size() * 32;
  }
  [[nodiscard]] const char* type_name() const override { return "rbay.SiteQueryReply"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SiteQueryReply>(*this);
  }
};

/// Customer decision on a reserved node (Fig. 7, step 5).  `lease` bounds
/// the tenancy (zero = indefinite).
struct CommitMsg final : pastry::TaggedMessage<CommitMsg> {
  query::QueryId query_id;
  util::SimTime lease = util::SimTime::zero();
  [[nodiscard]] std::size_t wire_size() const override { return 24 + query::QueryId::kWireSize; }
  [[nodiscard]] const char* type_name() const override { return "rbay.Commit"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<CommitMsg>(*this);
  }
};

/// Tenant extends its lease before expiry.
struct RenewMsg final : pastry::TaggedMessage<RenewMsg> {
  query::QueryId query_id;
  util::SimTime lease = util::SimTime::zero();
  [[nodiscard]] std::size_t wire_size() const override { return 24 + query::QueryId::kWireSize; }
  [[nodiscard]] const char* type_name() const override { return "rbay.Renew"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<RenewMsg>(*this);
  }
};

struct ReleaseMsg final : pastry::TaggedMessage<ReleaseMsg> {
  query::QueryId query_id;
  /// The query attempt whose reservations this frees (0 = any): the node
  /// ignores a release older than the attempt that last reserved it.
  int attempt = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 20 + query::QueryId::kWireSize; }
  [[nodiscard]] const char* type_name() const override { return "rbay.Release"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<ReleaseMsg>(*this);
  }
};

}  // namespace rbay::core
