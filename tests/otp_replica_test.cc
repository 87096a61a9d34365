// Unit tests for the OTP engine (paper Figures 4-6), driven through a manual
// broadcast endpoint so tests control Opt-/TO-delivery timing exactly.
// Includes the paper's Section 3.2 worked example (sites N and N') and the
// two correctness-check queue examples, transcribed literally.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/channels.h"
#include "core/otp_replica.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"

namespace otpdb {
namespace {

/// Broadcast endpoint whose deliveries are injected by the test.
class ManualAbcast final : public AtomicBroadcast {
 public:
  explicit ManualAbcast(SiteId self) : self_(self) {}

  MsgId broadcast(PayloadPtr payload) override {
    const MsgId id{self_, next_seq_++};
    sent_.emplace_back(id, std::move(payload));
    return id;
  }
  void set_callbacks(AbcastCallbacks callbacks) override { callbacks_ = std::move(callbacks); }
  SiteId site() const override { return self_; }
  const AbcastStats& stats() const override { return stats_; }

  void opt(const MsgId& id, PayloadPtr payload) {
    callbacks_.opt_deliver(Message{id, id.sender, kChannelData, std::move(payload)});
  }
  void to(const MsgId& id) { callbacks_.to_deliver(id, next_index_++); }

  const std::vector<std::pair<MsgId, PayloadPtr>>& sent() const { return sent_; }
  /// Drops the broadcast payloads, as a network does once it delivered them.
  void clear_sent() { sent_.clear(); }

 private:
  std::vector<std::pair<MsgId, PayloadPtr>> sent_;
  SiteId self_;
  std::uint64_t next_seq_ = 0;
  TOIndex next_index_ = 1;
  AbcastCallbacks callbacks_;
  AbcastStats stats_;
};

/// One site under test: simulator, store, registry, manual broadcast, replica.
struct Site {
  explicit Site(std::size_t n_classes, SiteId id = 0)
      : catalog(n_classes, 16), abcast(id) {
    // Procedure 0: increment object 0 of the class by args.ints[0], and append
    // the txn tag (args.ints[1]) to a per-class "log" object (object 1) so
    // commit order is observable in the data.
    proc = registry.add("tagged_increment", [this](TxnContext& ctx) {
      const ObjectId counter = catalog.object(ctx.conflict_class(), 0);
      const ObjectId order_log = catalog.object(ctx.conflict_class(), 1);
      ctx.write(counter, ctx.read_int(counter) + ctx.args().ints[0]);
      // Base-100 digit append, in unsigned space: long runs overflow 64 bits
      // and must wrap (defined) rather than trip UBSan; the tests that decode
      // the log only ever append a handful of tags.
      const auto shifted = static_cast<std::uint64_t>(ctx.read_int(order_log)) * 100 +
                           static_cast<std::uint64_t>(ctx.args().ints[1]);
      ctx.write(order_log, static_cast<std::int64_t>(shifted));
    });
    replica = std::make_unique<OtpReplica>(sim, abcast, storage, catalog, registry, id,
                                           OtpReplicaConfig{.paranoid_checks = true});
    replica->set_commit_hook([this](const CommitRecord& r) { commits.push_back(r); });
  }

  PayloadPtr make_request(ClassId klass, std::int64_t tag, SimTime exec) {
    auto request = std::make_shared<TxnRequest>();
    request->proc = proc;
    request->klass = klass;
    request->args.ints = {1, tag};
    request->origin = 0;
    request->submitted_at = sim.now();
    request->exec_duration = exec;
    return request;
  }

  Simulator sim;
  PartitionCatalog catalog;
  MemoryBackend storage{0};
  VersionedStore& store = storage.memory();
  ProcedureRegistry registry;
  ManualAbcast abcast;
  ProcId proc = 0;
  std::unique_ptr<OtpReplica> replica;
  std::vector<CommitRecord> commits;
};

MsgId id_of(std::uint64_t seq) { return MsgId{0, seq}; }

TEST(OtpReplica, SingleTransactionLifecycle) {
  Site site(1);
  auto req = site.make_request(0, 1, 5 * kMillisecond);
  site.abcast.opt(id_of(1), req);
  EXPECT_EQ(site.replica->class_queue(0).size(), 1u);
  EXPECT_EQ(site.replica->in_flight(), 1u);
  site.abcast.to(id_of(1));
  site.sim.run();
  EXPECT_EQ(site.commits.size(), 1u);
  EXPECT_EQ(site.replica->in_flight(), 0u);
  EXPECT_EQ(as_int(*site.store.read_latest(site.catalog.object(0, 0))), 1);
  EXPECT_EQ(site.replica->metrics().aborts, 0u);
}

TEST(OtpReplica, ExecutionBeforeToDeliveryCommitsAtToDelivery) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 1 * kMillisecond));
  site.sim.run();  // executes fully; stays [e,p], cannot commit yet
  EXPECT_EQ(site.commits.size(), 0u);
  EXPECT_EQ(site.replica->class_queue(0).head()->exec, ExecState::executed);
  EXPECT_EQ(site.replica->class_queue(0).head()->deliv, DeliveryState::pending);
  site.abcast.to(id_of(1));  // CC2-CC3: executed head commits immediately
  EXPECT_EQ(site.commits.size(), 1u);
}

TEST(OtpReplica, ToDeliveryDuringExecutionCommitsAtCompletion) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 10 * kMillisecond));
  site.sim.run_until(2 * kMillisecond);
  site.abcast.to(id_of(1));  // still running: marked committable (CC6)
  EXPECT_EQ(site.commits.size(), 0u);
  const TxnRecord* head = site.replica->class_queue(0).head();
  EXPECT_EQ(head->deliv, DeliveryState::committable);
  EXPECT_TRUE(head->running);
  site.sim.run();  // E1-E2: commit at completion
  EXPECT_EQ(site.commits.size(), 1u);
  EXPECT_EQ(site.replica->metrics().aborts, 0u);
}

TEST(OtpReplica, SameClassExecutesSerially) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 5 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request(0, 2, 5 * kMillisecond));
  // Only the head runs (S3: T2 must wait).
  EXPECT_TRUE(site.replica->class_queue(0).head()->running);
  EXPECT_FALSE(site.replica->class_queue(0).at(1)->running);
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  EXPECT_EQ(site.commits[0].txn, id_of(1));
  EXPECT_EQ(site.commits[1].txn, id_of(2));
  // Commit times are spaced by the serial execution.
  EXPECT_GE(site.commits[1].at - site.commits[0].at, 5 * kMillisecond);
}

TEST(OtpReplica, DifferentClassesExecuteConcurrently) {
  Site site(2);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 5 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request(1, 2, 5 * kMillisecond));
  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 2u);
  // Both committed at the same simulated instant: full overlap across classes.
  EXPECT_EQ(site.commits[0].at, site.commits[1].at);
}

// ---------------------------------------------------------------------------
// Paper Section 3.3, correctness-check example 1:
//   CQ = T1[a,c], T2[a,p], T3[a,p]; T3 is TO-delivered next (before T2).
//   Expected result: CQ = T1[a,c], T3[a,c], T2[a,p]; no abort (T1 stays).
// ---------------------------------------------------------------------------
TEST(OtpReplica, PaperExampleOne_ReorderBehindCommittableHead) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 20 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request(0, 2, 20 * kMillisecond));
  site.abcast.opt(id_of(3), site.make_request(0, 3, 20 * kMillisecond));
  site.sim.run_until(1 * kMillisecond);
  site.abcast.to(id_of(1));  // T1 running -> [a,c]
  const auto& q = site.replica->class_queue(0);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.at(0)->deliv, DeliveryState::committable);
  EXPECT_EQ(q.at(0)->exec, ExecState::active);

  site.abcast.to(id_of(3));  // T3 TO-delivered before T2
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.at(0)->id, id_of(1));
  EXPECT_EQ(q.at(1)->id, id_of(3));  // rescheduled between T1 and T2 (CC10)
  EXPECT_EQ(q.at(2)->id, id_of(2));
  EXPECT_EQ(q.at(0)->deliv, DeliveryState::committable);
  EXPECT_EQ(q.at(1)->deliv, DeliveryState::committable);
  EXPECT_EQ(q.at(2)->deliv, DeliveryState::pending);
  EXPECT_EQ(site.replica->metrics().aborts, 0u) << "committable head must not be aborted";
  EXPECT_TRUE(q.at(0)->running) << "T1's execution keeps running";

  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 3u);
  EXPECT_EQ(site.commits[0].txn, id_of(1));
  EXPECT_EQ(site.commits[1].txn, id_of(3));
  EXPECT_EQ(site.commits[2].txn, id_of(2));
}

// ---------------------------------------------------------------------------
// Paper Section 3.3, correctness-check example 2:
//   CQ = T1[e,p], T2[a,p], T3[a,p]; T3 is TO-delivered first.
//   Expected: T1 aborted (CC8), T3 scheduled first and submitted;
//   CQ = T3[a,c], T1[a,p], T2[a,p].
// ---------------------------------------------------------------------------
TEST(OtpReplica, PaperExampleTwo_AbortExecutedPendingHead) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 1 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request(0, 2, 1 * kMillisecond));
  site.abcast.opt(id_of(3), site.make_request(0, 3, 1 * kMillisecond));
  site.sim.run();  // T1 executes fully -> [e,p]
  const auto& q = site.replica->class_queue(0);
  EXPECT_EQ(q.at(0)->exec, ExecState::executed);

  site.abcast.to(id_of(3));  // wrongly ordered: T1 must be undone
  EXPECT_EQ(site.replica->metrics().aborts, 1u);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.at(0)->id, id_of(3));
  EXPECT_EQ(q.at(0)->deliv, DeliveryState::committable);
  EXPECT_EQ(q.at(0)->exec, ExecState::active);
  EXPECT_TRUE(q.at(0)->running) << "CC12: T3 submitted";
  EXPECT_EQ(q.at(1)->id, id_of(1));
  EXPECT_EQ(q.at(1)->exec, ExecState::active) << "T1's execution state reset by the undo";
  EXPECT_EQ(q.at(1)->deliv, DeliveryState::pending);
  EXPECT_EQ(q.at(2)->id, id_of(2));

  site.abcast.to(id_of(1));
  site.abcast.to(id_of(2));
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 3u);
  EXPECT_EQ(site.commits[0].txn, id_of(3));
  EXPECT_EQ(site.commits[1].txn, id_of(1));
  EXPECT_EQ(site.commits[2].txn, id_of(2));
  // The data reflects commit order T3, T1, T2 (tags 3,1,2 -> log 030102).
  EXPECT_EQ(as_int(*site.store.read_latest(site.catalog.object(0, 1))), 3 * 10000 + 102);
  EXPECT_EQ(site.replica->metrics().reexecutions, 1u) << "T1 executed twice";
}

// ---------------------------------------------------------------------------
// Paper Section 3.2: the full two-site example.
//   Classes: Cx = {T1,T2}, Cy = {T3,T4}, Cz = {T5,T6}
//   Tentative at N : T1,T2,T3,T4,T5,T6   (matches definitive)
//   Tentative at N': T1,T3,T2,T4,T6,T5   (T2/T3 swapped - harmless;
//                                         T5/T6 swapped - conflicting!)
//   Definitive     : T1,T2,T3,T4,T5,T6
// Expected: N commits without aborts; N' aborts/redoes only T6; both sites
// commit every class in definitive order and end in identical states.
// ---------------------------------------------------------------------------
TEST(OtpReplica, PaperSection32_TwoSiteExample) {
  Site n(3, 0), np(3, 0);
  const ClassId cx = 0, cy = 1, cz = 2;
  // One shared request payload per transaction (as a broadcast would deliver).
  std::vector<PayloadPtr> req = {
      nullptr,
      n.make_request(cx, 1, 10 * kMillisecond), n.make_request(cx, 2, 10 * kMillisecond),
      n.make_request(cy, 3, 10 * kMillisecond), n.make_request(cy, 4, 10 * kMillisecond),
      n.make_request(cz, 5, 10 * kMillisecond), n.make_request(cz, 6, 10 * kMillisecond)};

  for (std::uint64_t t : {1u, 2u, 3u, 4u, 5u, 6u}) n.abcast.opt(id_of(t), req[t]);
  for (std::uint64_t t : {1u, 3u, 2u, 4u, 6u, 5u}) np.abcast.opt(id_of(t), req[t]);

  // Queue shapes right after Opt-delivery (paper's figure):
  auto ids = [](const ClassQueue& q) {
    std::vector<std::uint64_t> out;
    for (const TxnRecord* t : q) out.push_back(t->id.seq);
    return out;
  };
  EXPECT_EQ(ids(n.replica->class_queue(cx)), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ids(n.replica->class_queue(cy)), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ids(n.replica->class_queue(cz)), (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(ids(np.replica->class_queue(cz)), (std::vector<std::uint64_t>{6, 5}));

  // Definitive order arrives at both sites while heads are executing.
  n.sim.run_until(2 * kMillisecond);
  np.sim.run_until(2 * kMillisecond);
  for (std::uint64_t t : {1u, 2u, 3u, 4u, 5u, 6u}) {
    n.abcast.to(id_of(t));
    np.abcast.to(id_of(t));
  }
  n.sim.run();
  np.sim.run();

  // All six commit everywhere.
  ASSERT_EQ(n.commits.size(), 6u);
  ASSERT_EQ(np.commits.size(), 6u);
  // N processed in matching orders: no aborts at all.
  EXPECT_EQ(n.replica->metrics().aborts, 0u);
  // N': the T2/T3 swap is across classes - no conflict, no cost. Only the
  // conflicting T6/T5 swap forces one abort + one re-execution.
  EXPECT_EQ(np.replica->metrics().aborts, 1u);
  EXPECT_EQ(np.replica->metrics().reexecutions, 1u);

  // Per class, commit order equals the definitive order at both sites.
  auto class_order = [](const std::vector<CommitRecord>& commits, ClassId klass) {
    std::vector<std::uint64_t> out;
    for (const auto& r : commits)
      if (r.klass == klass) out.push_back(r.txn.seq);
    return out;
  };
  for (ClassId c : {cx, cy, cz}) {
    EXPECT_EQ(class_order(n.commits, c), class_order(np.commits, c)) << "class " << c;
  }
  EXPECT_EQ(class_order(n.commits, cz), (std::vector<std::uint64_t>{5, 6}));

  // Identical final database state (1-copy property).
  for (ClassId c : {cx, cy, cz}) {
    for (std::uint64_t k : {0u, 1u}) {
      const ObjectId obj = n.catalog.object(c, k);
      EXPECT_EQ(as_int(*n.store.read_latest(obj)), as_int(*np.store.read_latest(obj)))
          << "object " << obj;
    }
  }
}

TEST(OtpReplica, AbortedWorkIsInvisibleToTheStore) {
  Site site(1);
  site.abcast.opt(id_of(1), site.make_request(0, 1, 1 * kMillisecond));
  site.abcast.opt(id_of(2), site.make_request(0, 2, 1 * kMillisecond));
  site.sim.run();  // T1 executed [e,p]; its provisional write exists
  site.abcast.to(id_of(2));  // aborts T1, T2 to the head
  // Before T2's execution completes, the store must show no trace of T1.
  EXPECT_FALSE(site.store.read_latest(site.catalog.object(0, 0)).has_value());
  site.abcast.to(id_of(1));
  site.sim.run();
  EXPECT_EQ(site.commits.size(), 2u);
  // Both increments present: nothing lost, nothing doubled.
  EXPECT_EQ(as_int(*site.store.read_latest(site.catalog.object(0, 0))), 2);
}

TEST(OtpReplica, CommitLatencyRecordedAtOriginOnly) {
  Site site(1);
  // Submit through the replica (origin = this site).
  site.replica->submit_update(site.proc, 0, TxnArgs{{1, 7}}, 2 * kMillisecond);
  ASSERT_EQ(site.abcast.sent().size(), 1u);
  const auto& [id, payload] = site.abcast.sent()[0];
  site.abcast.opt(id, payload);
  site.abcast.to(id);
  site.sim.run();
  EXPECT_EQ(site.replica->metrics().commit_latency_ns.count(), 1u);
  EXPECT_GE(site.replica->metrics().commit_latency_ns.mean(),
            static_cast<double>(2 * kMillisecond));
}

TEST(OtpReplica, RecycledRequestCarriesNothingOfThePrevious) {
  // The replica broadcasts every request from its pool: once nothing holds
  // a request, the next submission reuses its body and must not inherit its
  // class set or deadline.
  Site site(4);
  ASSERT_EQ(site.replica->submit_update_multi(site.proc, {2, 1}, TxnArgs{{1, 7}}, kMillisecond,
                                              5 * kSecond),
            SubmitResult::admitted);
  const Payload* first = site.abcast.sent().at(0).second.get();
  site.abcast.clear_sent();
  ASSERT_EQ(site.replica->submit_update(site.proc, 3, TxnArgs{{1, 8}}, kMillisecond),
            SubmitResult::admitted);
  ASSERT_EQ(site.abcast.sent().size(), 1u);
  const auto& request = static_cast<const TxnRequest&>(*site.abcast.sent()[0].second);
  EXPECT_EQ(&request, first) << "the released request's body was not reused";
  EXPECT_EQ(request.klass, 3u);
  EXPECT_TRUE(request.classes.empty());
  EXPECT_EQ(request.class_span().size(), 1u);
  EXPECT_EQ(request.deadline, 0);
  EXPECT_TRUE(request.access_set.empty());
  EXPECT_EQ(request.args.ints, (std::vector<std::int64_t>{1, 8}));
  EXPECT_EQ(request.client_seq, 1u);
}

TEST(OtpReplica, ManyPendingReordersConvergeToDefinitiveOrder) {
  // Tentative order fully reversed against definitive: every TO-delivery
  // reorders; commits still follow the definitive order exactly.
  Site site(1);
  for (std::uint64_t t = 1; t <= 6; ++t) {
    site.abcast.opt(id_of(t), site.make_request(0, static_cast<std::int64_t>(t),
                                                 1 * kMillisecond));
  }
  for (std::uint64_t t = 6; t >= 1; --t) site.abcast.to(id_of(t));  // definitive: 6,5,...,1
  site.sim.run();
  ASSERT_EQ(site.commits.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(site.commits[i].txn, id_of(6 - i)) << "position " << i;
    EXPECT_EQ(site.commits[i].index, i + 1);
  }
}

TEST(OtpReplica, StarvationFreedom_EveryToDeliveredTxnCommits) {
  // Theorem 4.1 at unit scale: reversed TO order with long executions; all
  // transactions, however often rescheduled, eventually commit.
  Site site(1);
  const int kTxns = 12;
  for (std::uint64_t t = 1; t <= kTxns; ++t) {
    site.abcast.opt(id_of(t), site.make_request(0, static_cast<std::int64_t>(t),
                                                 3 * kMillisecond));
  }
  for (std::uint64_t t = kTxns; t >= 1; --t) site.abcast.to(id_of(t));
  site.sim.run();
  EXPECT_EQ(site.commits.size(), static_cast<std::size_t>(kTxns));
  EXPECT_EQ(site.replica->in_flight(), 0u);
}

}  // namespace
}  // namespace otpdb
