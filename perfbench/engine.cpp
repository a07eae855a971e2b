#include "engine.h"

#include <algorithm>
#include <map>

#include "rls/protocol.h"

namespace perfbench {

using rlscommon::ErrorCode;

namespace {

constexpr std::size_t kBulkItems = 100;
constexpr uint64_t kFreshSpace = 1ull << 33;  // fits the corpus' 10 digits

uint64_t Mix64(uint64_t seed, uint64_t salt) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return rlscommon::SplitMix64(state);
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    const uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

void PhaseRecorders::Merge(const PhaseRecorders& other) {
  query.Merge(other.query);
  write.Merge(other.write);
  bulk.Merge(other.bulk);
}

void PhaseRecorders::AddMedians(PhaseRecorders& slice) {
  if (slice.query.count() > 0) query.Add(slice.query.Median());
  if (slice.write.count() > 0) write.Add(slice.write.Median());
  if (slice.bulk.count() > 0) bulk.Add(slice.bulk.Median());
}

KeyPicker::KeyPicker(uint64_t catalog, uint64_t seed)
    : catalog_(catalog == 0 ? 1 : catalog),
      stride_(7919),
      offset_(Mix64(seed, 1) % catalog_),
      zipf_(catalog_, 0.99, Mix64(seed, 2)),
      rng_(Mix64(seed, 3)),
      fresh_offset_(Mix64(seed, 4) % kFreshSpace) {
  while (Gcd(stride_, catalog_) != 1) stride_ += 2;
}

uint64_t KeyPicker::Zipf() {
  // Rank r -> r * stride + offset (mod n) is a bijection, so the hot
  // ranks land on scattered catalog entries.
  const unsigned __int128 spread =
      static_cast<unsigned __int128>(zipf_.Next()) * stride_ + offset_;
  return static_cast<uint64_t>(spread % catalog_);
}

uint64_t KeyPicker::NextFresh() {
  // An odd multiplier permutes [0, 2^33): unique and scattered.
  const uint64_t counter = fresh_counter_++;
  return (counter * 0x9e3779b97ULL + fresh_offset_) % kFreshSpace;
}

Engine::Engine(const RunConfig& config, Deployment& deployment, Watchdog& watchdog,
               Tally& tally, uint64_t stream)
    : config_(config),
      deployment_(deployment),
      tally_(tally),
      keys_(config.kind == WorkloadKind::kRliSoftState ? config.names_per_lrc
                                                       : config.catalog,
            Mix64(config.seed, stream)),
      driver_(deployment.connections(), &watchdog) {}

Engine::~Engine() {
  // Drain before the deployment closes its clients.
  Settle();
}

void Engine::Settle() {
  while (driver_.in_flight() > 0) {
    completions_.clear();
    driver_.Poll(Clock::now() + std::chrono::milliseconds(100), &completions_);
    for (Completion& c : completions_) Handle(c);
  }
}

uint32_t Engine::AllocSlot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

std::string Engine::Lfn(const Active& op, std::size_t i) const {
  const Names& names = deployment_.names();
  const uint64_t key = op.keys[i];
  switch (op.kind) {
    case CallKind::kQuery:
    case CallKind::kBulkQuery:
      return names.catalog.LogicalName(key);
    case CallKind::kRliQuery:
    case CallKind::kRliBulkQuery:
      return op.owners[i] < 0 ? names.absent.LogicalName(key)
                              : names.sites[op.owners[i]].LogicalName(key);
    default:
      return names.fresh.LogicalName(key);
  }
}

std::string Engine::Pfn(const Active& op, std::size_t i) const {
  const Names& names = deployment_.names();
  if (op.kind == CallKind::kQuery || op.kind == CallKind::kBulkQuery) {
    return names.catalog.PhysicalName(op.keys[i]);
  }
  return names.fresh.PhysicalName(op.keys[i]);
}

void Engine::PickRliName(Active* op) {
  // Half the names are held by exactly one LRC, half by none.
  const std::size_t sites = deployment_.lrcs().size();
  if (keys_.Roll() < 0.5) {
    op->owners.push_back(static_cast<int>(keys_.Uniform(sites)));
    op->keys.push_back(keys_.Uniform(config_.names_per_lrc));
  } else {
    op->owners.push_back(-1);
    op->keys.push_back(keys_.Uniform(config_.names_per_lrc * 4));
  }
}

void Engine::StartOp(Clock::time_point origin) {
  const uint32_t slot = AllocSlot();
  Active& op = slots_[slot];
  op.keys.clear();
  op.owners.clear();
  op.origin = origin;
  const double roll = keys_.Roll();
  switch (config_.kind) {
    case WorkloadKind::kLrcReadMostly:
      if (roll < 0.90) {
        op.kind = CallKind::kQuery;
        op.keys.push_back(keys_.Zipf());
      } else if (roll < 0.95) {
        op.kind = CallKind::kBulkQuery;
        for (std::size_t i = 0; i < kBulkItems; ++i) op.keys.push_back(keys_.Zipf());
      } else {
        op.kind = CallKind::kCreate;
        op.keys.push_back(keys_.NextFresh());
      }
      break;
    case WorkloadKind::kLrcDurableChurn:
      if (roll < 0.70) {
        op.kind = CallKind::kCreate;
        op.keys.push_back(keys_.NextFresh());
      } else if (roll < 0.90) {
        op.kind = CallKind::kBulkCreate;
        for (std::size_t i = 0; i < kBulkItems; ++i) op.keys.push_back(keys_.NextFresh());
      } else {
        op.kind = CallKind::kQuery;
        op.keys.push_back(keys_.Uniform(config_.catalog));
      }
      break;
    case WorkloadKind::kRliSoftState:
      if (roll < 0.90) {
        op.kind = CallKind::kRliQuery;
        PickRliName(&op);
      } else if (roll < 0.95) {
        op.kind = CallKind::kRliBulkQuery;
        for (std::size_t i = 0; i < kBulkItems; ++i) PickRliName(&op);
      } else {
        op.kind = CallKind::kCreate;  // on LRC 0, while it sends updates
        op.keys.push_back(keys_.NextFresh());
      }
      break;
  }
  Issue(slot);
}

void Engine::Issue(uint32_t slot) {
  Active& op = slots_[slot];
  std::string payload;
  uint16_t opcode = 0;
  switch (op.kind) {
    case CallKind::kQuery:
    case CallKind::kRliQuery: {
      rls::NameQueryRequest req;
      req.name = Lfn(op, 0);
      req.Encode(&payload);
      opcode = op.kind == CallKind::kQuery ? rls::kLrcQueryLfn : rls::kRliQueryLfn;
      break;
    }
    case CallKind::kBulkQuery:
    case CallKind::kRliBulkQuery: {
      rls::BulkQueryRequest req;
      for (std::size_t i = 0; i < op.keys.size(); ++i) req.names.push_back(Lfn(op, i));
      req.Encode(&payload);
      opcode = op.kind == CallKind::kBulkQuery ? rls::kLrcBulkQueryLfn : rls::kRliBulkQuery;
      break;
    }
    case CallKind::kCreate:
    case CallKind::kDelete:
    case CallKind::kBulkCreate:
    case CallKind::kBulkDelete: {
      rls::MappingRequest req;
      for (std::size_t i = 0; i < op.keys.size(); ++i) {
        req.mappings.push_back(rls::Mapping{Lfn(op, i), Pfn(op, i)});
        tally_.user_bytes_written +=
            req.mappings.back().logical.size() + req.mappings.back().target.size();
      }
      req.Encode(&payload);
      opcode = op.kind == CallKind::kCreate       ? rls::kLrcCreate
               : op.kind == CallKind::kDelete     ? rls::kLrcDelete
               : op.kind == CallKind::kBulkCreate ? rls::kLrcBulkCreate
                                                  : rls::kLrcBulkDelete;
      break;
    }
  }
  std::size_t conn;
  const bool to_rli = op.kind == CallKind::kRliQuery || op.kind == CallKind::kRliBulkQuery;
  if (config_.kind == WorkloadKind::kRliSoftState) {
    // Connections 0..2 reach the RLI, the last one LRC 0.
    conn = to_rli ? (next_rli_conn_++ % (kConnections - 1)) : kConnections - 1;
  } else {
    conn = next_conn_++ % kConnections;
  }
  ++tally_.attempted;
  driver_.Issue(conn, opcode, payload, slot);
}

void Engine::CheckRliAnswer(const std::string& lfn, int owner,
                            const std::vector<std::string>& lrcs) {
  const auto& urls = deployment_.lrc_urls();
  const auto& modes = deployment_.lrc_modes();
  bool found_owner = owner < 0;
  for (const std::string& url : lrcs) {
    ++tally_.rli_answers;
    if (owner >= 0 && url == urls[owner]) {
      found_owner = true;
      continue;
    }
    const auto it = std::find(urls.begin(), urls.end(), url);
    if (it != urls.end() && modes[it - urls.begin()] == rls::UpdateMode::kBloom) {
      ++tally_.rli_false_hits;  // a Bloom filter's false positive
    } else {
      tally_.Fail("RLI names " + url + " for " + lfn + ", which it does not hold");
    }
  }
  if (!found_owner) tally_.Fail("RLI false negative for " + lfn);
}

void Engine::Handle(Completion& c) {
  const uint32_t slot = static_cast<uint32_t>(c.tag);
  Active& op = slots_[slot];
  const double latency_us = MicrosBetween(op.origin, c.done);
  bool done = true;
  switch (op.kind) {
    case CallKind::kQuery: {
      rls::StringListResponse resp;
      if (!c.status.ok() || !rls::StringListResponse::Decode(c.response, &resp).ok() ||
          resp.values != std::vector<std::string>{Pfn(op, 0)}) {
        tally_.Fail("LRC query of " + Lfn(op, 0) + ": " + c.status.ToString());
      } else if (recorders_) {
        recorders_->query.Add(latency_us);
      }
      break;
    }
    case CallKind::kBulkQuery: {
      rls::MappingListResponse resp;
      bool ok = c.status.ok() && rls::MappingListResponse::Decode(c.response, &resp).ok() &&
                resp.mappings.size() == op.keys.size();
      for (std::size_t i = 0; ok && i < op.keys.size(); ++i) {
        ok = resp.mappings[i] == rls::Mapping{Lfn(op, i), Pfn(op, i)};
      }
      if (!ok) {
        tally_.Fail("LRC bulk query: " + c.status.ToString());
      } else if (recorders_) {
        recorders_->bulk.Add(latency_us);
      }
      break;
    }
    case CallKind::kCreate:
    case CallKind::kDelete: {
      if (!c.status.ok()) {
        tally_.Fail(std::string(op.kind == CallKind::kCreate ? "create " : "delete ") +
                    Lfn(op, 0) + ": " + c.status.ToString());
        break;
      }
      if (recorders_) recorders_->write.Add(latency_us);
      if (op.kind == CallKind::kCreate) {
        // The delete goes out only now that the create is acknowledged:
        // calls on different connections may be served out of order.
        op.kind = CallKind::kDelete;
        op.origin = Clock::now();
        done = false;
      }
      break;
    }
    case CallKind::kBulkCreate:
    case CallKind::kBulkDelete: {
      rls::BulkStatusResponse resp;
      if (!c.status.ok() || !rls::BulkStatusResponse::Decode(c.response, &resp).ok() ||
          !resp.failures.empty() || resp.succeeded != op.keys.size()) {
        tally_.Fail(std::string(op.kind == CallKind::kBulkCreate ? "bulk create: "
                                                                 : "bulk delete: ") +
                    c.status.ToString());
        break;
      }
      if (recorders_) recorders_->bulk.Add(latency_us);
      if (op.kind == CallKind::kBulkCreate) {
        op.kind = CallKind::kBulkDelete;
        op.origin = Clock::now();
        done = false;
      }
      break;
    }
    case CallKind::kRliQuery: {
      rls::StringListResponse resp;
      if (c.status.code() == ErrorCode::kNotFound) {
        if (op.owners[0] >= 0) tally_.Fail("RLI false negative for " + Lfn(op, 0));
      } else if (!c.status.ok() ||
                 !rls::StringListResponse::Decode(c.response, &resp).ok()) {
        tally_.Fail("RLI query of " + Lfn(op, 0) + ": " + c.status.ToString());
        break;
      } else {
        CheckRliAnswer(Lfn(op, 0), op.owners[0], resp.values);
      }
      if (recorders_) recorders_->query.Add(latency_us);
      break;
    }
    case CallKind::kRliBulkQuery: {
      rls::MappingListResponse resp;
      if (!c.status.ok() || !rls::MappingListResponse::Decode(c.response, &resp).ok()) {
        tally_.Fail("RLI bulk query: " + c.status.ToString());
        break;
      }
      std::map<std::string, std::vector<std::string>> answers;
      for (rls::Mapping& m : resp.mappings) {
        answers[m.logical].push_back(std::move(m.target));
      }
      std::map<std::string, int> asked;
      for (std::size_t i = 0; i < op.keys.size(); ++i) asked[Lfn(op, i)] = op.owners[i];
      for (const auto& [lfn, owner] : asked) {
        const auto it = answers.find(lfn);
        CheckRliAnswer(lfn, owner, it == answers.end() ? std::vector<std::string>{}
                                                       : it->second);
      }
      for (const auto& [lfn, lrcs] : answers) {
        if (!asked.count(lfn)) tally_.Fail("RLI bulk query answers unasked name " + lfn);
      }
      if (recorders_) recorders_->bulk.Add(latency_us);
      break;
    }
  }
  if (done) {
    free_slots_.push_back(slot);
  } else {
    Issue(slot);
  }
}

void Engine::Warmup(uint64_t ops) {
  const std::size_t window = std::min<std::size_t>(kWindow, ops);
  uint64_t started = 0;
  while (started < ops || driver_.in_flight() > 0) {
    while (started < ops && driver_.in_flight() < window) {
      StartOp(Clock::now());
      ++started;
    }
    completions_.clear();
    driver_.Poll(Clock::now() + std::chrono::milliseconds(100), &completions_);
    for (Completion& c : completions_) Handle(c);
  }
}

double Engine::OpenLoop(double seconds, double rate, std::size_t max_in_flight,
                        PhaseRecorders* recorders) {
  recorders_ = recorders;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  OpenLoopSchedule schedule(start, rate);
  uint64_t next = 0;
  // The generator spins between due times instead of sleeping, so its
  // own wake-up latency does not land on the calls it sends.
  driver_.set_spin(true);
  for (;;) {
    const Clock::time_point now = Clock::now();
    const uint64_t due = schedule.DueBy(std::min(now, end - std::chrono::nanoseconds(1)));
    while (next < due && driver_.in_flight() < max_in_flight) {
      // Timed from its due time, not from now: a call held back by the
      // cap, or by a late generator, carries that wait in its latency.
      StartOp(schedule.Due(next));
      schedule.NoteSent(next, Clock::now());
      ++next;
    }
    if (now >= end && next >= due) break;
    completions_.clear();
    driver_.Poll(std::min(schedule.Due(next), end), &completions_);
    for (Completion& c : completions_) Handle(c);
  }
  driver_.set_spin(false);
  // Calls due inside the phase still count, however late they finish.
  Settle();
  recorders_ = nullptr;
  return schedule.max_lag_ms();
}

double Engine::ClosedLoop(double seconds, std::size_t window) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  uint64_t completed = 0;
  while (Clock::now() < end) {
    while (driver_.in_flight() < window) StartOp(Clock::now());
    completions_.clear();
    driver_.Poll(end, &completions_);
    completed += completions_.size();
    for (Completion& c : completions_) Handle(c);
  }
  const Clock::time_point stop = Clock::now();
  // Calls still in flight, and their follow-ups, finish uncounted.
  Settle();
  return static_cast<double>(completed) /
         std::chrono::duration<double>(stop - start).count();
}

}  // namespace perfbench
