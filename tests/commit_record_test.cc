// The commit record each engine hands its commit hook. Engines own one
// record and refill it at every commit, so these tests pin what a refill must
// reset: after a CC8 undo the read set is the final execution's alone, the
// write set is the store's (sorted) provisional one, a single-class commit
// after a multi-class one carries no class set, and copies a hook keeps (the
// HistoryRecorder's) are unaffected by later commits. Run on the OTP,
// conservative and lock-table engines through a manual broadcast endpoint.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/channels.h"
#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/lock_table_replica.h"
#include "core/otp_replica.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "sim/simulator.h"

namespace otpdb {
namespace {

/// Broadcast endpoint whose deliveries are injected by the test.
class ManualAbcast final : public AtomicBroadcast {
 public:
  MsgId broadcast(PayloadPtr) override { return MsgId{}; }
  void set_callbacks(AbcastCallbacks callbacks) override { callbacks_ = std::move(callbacks); }
  SiteId site() const override { return 0; }
  const AbcastStats& stats() const override { return stats_; }

  void opt(const MsgId& id, PayloadPtr payload) {
    callbacks_.opt_deliver(Message{id, id.sender, kChannelData, std::move(payload)});
  }
  void to(const MsgId& id) { callbacks_.to_deliver(id, next_index_++); }

 private:
  TOIndex next_index_ = 1;
  AbcastCallbacks callbacks_;
  AbcastStats stats_;
};

enum class Engine { otp, conservative, lock_table };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::otp:
      return "otp";
    case Engine::conservative:
      return "conservative";
    case Engine::lock_table:
      return "lock_table";
  }
  return "?";
}

/// One site of the given engine. Procedure `proc`, for every class c listed
/// in args.ints[1..]: reads marker (c,2) and counter (c,0), then writes
/// (c,3) = counter * 10 + tag and (c,0) = counter + 1 - in descending object
/// order, so the sorted write set differs from the write order.
struct Site {
  explicit Site(Engine engine) : catalog(2, 16), recorder(1) {
    proc = registry.add("marked_rmw", [this](TxnContext& ctx) {
      const std::int64_t tag = ctx.args().ints[0];
      for (std::size_t i = 1; i < ctx.args().ints.size(); ++i) {
        const auto c = static_cast<ClassId>(ctx.args().ints[i]);
        (void)ctx.read_int(catalog.object(c, 2));
        const std::int64_t counter = ctx.read_int(catalog.object(c, 0));
        ctx.write(catalog.object(c, 3), Value{counter * 10 + tag});
        ctx.write(catalog.object(c, 0), Value{counter + 1});
      }
    });
    switch (engine) {
      case Engine::otp:
        replica = std::make_unique<OtpReplica>(sim, abcast, storage, catalog, registry, 0,
                                               OtpReplicaConfig{.paranoid_checks = true});
        break;
      case Engine::conservative:
        replica =
            std::make_unique<ConservativeReplica>(sim, abcast, storage, catalog, registry, 0);
        break;
      case Engine::lock_table:
        replica = std::make_unique<LockTableReplica>(
            sim, abcast, storage, catalog, registry, 0,
            [](ClassId, const TxnArgs&) { return std::vector<ObjectId>{}; });
        break;
    }
    replica->set_commit_hook([this](const CommitRecord& r) {
      hooked.push_back(&r);
      recorder.record(r);
    });
  }

  /// A request covering `classes` (ascending). The lock-table engine gets the
  /// touched objects as its access set and no class set.
  PayloadPtr request(Engine engine, std::vector<ClassId> classes, std::int64_t tag) {
    auto req = std::make_shared<TxnRequest>();
    req->proc = proc;
    req->klass = classes.front();
    req->args.ints.push_back(tag);
    for (ClassId c : classes) {
      req->args.ints.push_back(c);
      if (engine == Engine::lock_table) {
        for (std::uint64_t k : {0, 2, 3}) req->access_set.push_back(catalog.object(c, k));
      }
    }
    if (engine != Engine::lock_table && classes.size() > 1) req->classes = classes;
    req->exec_duration = kMillisecond;
    return req;
  }

  ObjectId obj(ClassId c, std::uint64_t k) const { return catalog.object(c, k); }

  Simulator sim;
  PartitionCatalog catalog;
  MemoryBackend storage{0};
  ProcedureRegistry registry;
  ManualAbcast abcast;
  ProcId proc = 0;
  std::unique_ptr<ReplicaBase> replica;
  HistoryRecorder recorder;
  std::vector<const CommitRecord*> hooked;  // the record each hook call saw
};

using Entries = std::vector<std::pair<ObjectId, Value>>;

Value v(std::int64_t x) { return Value{x}; }

void run_scenario(Engine engine) {
  SCOPED_TRACE(engine_name(engine));
  Site site(engine);
  const MsgId a{0, 1}, b{0, 2}, m{0, 3}, s{0, 4};
  // A runs first on Opt-delivery (OTP, lock-table), but B is ordered first:
  // A is undone (CC8) and re-executes after B's commit.
  site.abcast.opt(a, site.request(engine, {0}, 1));
  site.abcast.opt(b, site.request(engine, {0}, 2));
  site.sim.run();
  site.abcast.to(b);
  site.sim.run();
  site.abcast.to(a);
  site.sim.run();
  // A multi-class commit, then a single-class one.
  site.abcast.opt(m, site.request(engine, {0, 1}, 3));
  site.abcast.to(m);
  site.sim.run();
  site.abcast.opt(s, site.request(engine, {1}, 4));
  site.abcast.to(s);
  site.sim.run();

  EXPECT_EQ(site.replica->metrics().aborts, engine == Engine::conservative ? 0u : 1u);
  const std::vector<CommitRecord>& log = site.recorder.site_logs()[0];
  ASSERT_EQ(log.size(), 4u);
  for (const CommitRecord* r : site.hooked) EXPECT_EQ(r, site.hooked.front()) << "one record";

  const CommitRecord& rb = log[0];
  EXPECT_EQ(rb.txn, b);
  EXPECT_EQ(rb.index, 1u);
  EXPECT_TRUE(rb.classes.empty());
  EXPECT_EQ(rb.reads, (Entries{{site.obj(0, 2), v(0)}, {site.obj(0, 0), v(0)}}));
  EXPECT_EQ(rb.writes, (Entries{{site.obj(0, 0), v(1)}, {site.obj(0, 3), v(2)}}));

  // The re-execution's reads alone: the undone run read counter 0.
  const CommitRecord& ra = log[1];
  EXPECT_EQ(ra.txn, a);
  EXPECT_EQ(ra.index, 2u);
  EXPECT_EQ(ra.reads, (Entries{{site.obj(0, 2), v(0)}, {site.obj(0, 0), v(1)}}));
  EXPECT_EQ(ra.writes, (Entries{{site.obj(0, 0), v(2)}, {site.obj(0, 3), v(11)}}));

  const CommitRecord& rm = log[2];
  EXPECT_EQ(rm.txn, m);
  if (engine == Engine::lock_table) {
    EXPECT_TRUE(rm.classes.empty());  // the lock-table engine has no class sets
  } else {
    EXPECT_EQ(rm.classes, (std::vector<ClassId>{0, 1}));
  }
  EXPECT_EQ(rm.reads, (Entries{{site.obj(0, 2), v(0)},
                               {site.obj(0, 0), v(2)},
                               {site.obj(1, 2), v(0)},
                               {site.obj(1, 0), v(0)}}));
  EXPECT_EQ(rm.writes, (Entries{{site.obj(0, 0), v(3)},
                                {site.obj(0, 3), v(23)},
                                {site.obj(1, 0), v(1)},
                                {site.obj(1, 3), v(3)}}));

  const CommitRecord& rs = log[3];
  EXPECT_EQ(rs.txn, s);
  EXPECT_EQ(rs.klass, 1u);
  EXPECT_TRUE(rs.classes.empty()) << "a single-class commit after a multi-class one";
  EXPECT_EQ(rs.reads, (Entries{{site.obj(1, 2), v(0)}, {site.obj(1, 0), v(1)}}));
  EXPECT_EQ(rs.writes, (Entries{{site.obj(1, 0), v(2)}, {site.obj(1, 3), v(14)}}));
}

TEST(CommitRecord, RefilledPerCommitOtp) { run_scenario(Engine::otp); }

TEST(CommitRecord, RefilledPerCommitConservative) { run_scenario(Engine::conservative); }

TEST(CommitRecord, RefilledPerCommitLockTable) { run_scenario(Engine::lock_table); }

}  // namespace
}  // namespace otpdb
