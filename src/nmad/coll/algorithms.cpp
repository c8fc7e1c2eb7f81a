// Schedule compilers: each collective algorithm builds a DAG of
// send/recv/reduce/copy ops with explicit data and anti dependencies.
//
// Invariants every builder maintains:
//  * every matched (send, recv) pair gets its own tag, so ops can be
//    issued in any order on any core (the per-(peer, tag) FIFO sequence
//    underneath is never crossed);
//  * the tag-block size is a pure function of (world, sizes, config), so
//    all ranks' band cursors advance in lockstep;
//  * zero-length chunks are skipped symmetrically on both sides of a
//    matched pair (lengths derive from the same block arithmetic);
//  * a recv or reduce that overwrites a buffer some earlier send still
//    reads carries an anti-dependency edge on that send.
#include "nmad/coll/coll.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pm2::nm::coll {
namespace {

struct Range {
  std::size_t lo = 0;
  std::size_t len = 0;
};

/// Element range of chunk `k` when `total` elements are cut into `parts`
/// near-equal pieces (the standard balanced partition: piece sizes differ
/// by at most one, identical on every rank).
Range chunk_of(std::size_t total, std::uint32_t parts, std::uint32_t k) {
  const std::size_t lo = total * k / parts;
  const std::size_t hi = total * (k + 1) / parts;
  return {lo, hi - lo};
}

std::span<const std::byte> bytes_of(std::span<const double> d) {
  return std::as_bytes(d);
}

std::span<std::byte> wbytes_of(std::span<double> d) {
  return std::as_writable_bytes(d);
}

}  // namespace

// ------------------------------------------------------------ entry points

CollRequest* Engine::ibarrier() {
  CollRequest* cr = acquire(Algo::kDissemination);
  ++stats_.algo_dissemination;
  build_barrier(*cr);
  launch(cr);
  return cr;
}

CollRequest* Engine::ibcast(std::span<std::byte> buffer, int root,
                            Algo algo) {
  if (algo == Algo::kAuto) algo = choose_bcast(buffer.size());
  PM2_ASSERT_MSG(
      algo == Algo::kBinomial || algo == Algo::kBinomialPipeline,
      "ibcast supports kBinomial / kBinomialPipeline");
  CollRequest* cr = acquire(algo);
  std::size_t chunks;
  if (algo == Algo::kBinomialPipeline) {
    ++stats_.algo_binomial_pipeline;
    chunks = chunk_count(buffer.size());
  } else {
    ++stats_.algo_binomial;
    chunks = buffer.empty() ? 0 : 1;
  }
  build_bcast(*cr, buffer, root, chunks);
  launch(cr);
  return cr;
}

CollRequest* Engine::iallreduce_sum(std::span<double> data, Algo algo) {
  if (algo == Algo::kAuto) algo = choose_allreduce(data.size() * sizeof(double));
  PM2_ASSERT_MSG(algo == Algo::kRing || algo == Algo::kRecursiveDoubling,
                 "iallreduce supports kRing / kRecursiveDoubling");
  CollRequest* cr = acquire(algo);
  if (algo == Algo::kRing) {
    ++stats_.algo_ring;
    build_allreduce_ring(*cr, data);
  } else {
    ++stats_.algo_recursive_doubling;
    build_allreduce_rd(*cr, data);
  }
  launch(cr);
  return cr;
}

CollRequest* Engine::igather(std::span<const std::byte> send,
                             std::span<std::byte> recv, int root) {
  CollRequest* cr = acquire(Algo::kLinear);
  ++stats_.algo_linear;
  build_gather(*cr, send, recv, root);
  launch(cr);
  return cr;
}

CollRequest* Engine::iscatter(std::span<const std::byte> send,
                              std::span<std::byte> recv, int root) {
  CollRequest* cr = acquire(Algo::kLinear);
  ++stats_.algo_linear;
  build_scatter(*cr, send, recv, root);
  launch(cr);
  return cr;
}

CollRequest* Engine::iallgather(std::span<const std::byte> send,
                                std::span<std::byte> recv) {
  const Algo algo = choose_allgather(send.size());
  CollRequest* cr = acquire(algo);
  if (algo == Algo::kRing) {
    ++stats_.algo_ring;
    build_allgather(*cr, send, recv);
  } else {
    ++stats_.algo_recursive_doubling;
    build_allgather_bruck(*cr, send, recv);
  }
  launch(cr);
  return cr;
}

CollRequest* Engine::ialltoall(std::span<const std::byte> send,
                               std::span<std::byte> recv, std::size_t block) {
  CollRequest* cr = acquire(Algo::kLinear);
  ++stats_.algo_linear;
  build_alltoall(*cr, send, recv, block);
  launch(cr);
  return cr;
}

// ----------------------------------------------------- dissemination barrier

void Engine::build_barrier(CollRequest& cr) {
  const unsigned n = world_;
  const unsigned me = rank();
  unsigned rounds = 0;
  for (unsigned d = 1; d < n; d <<= 1) ++rounds;
  cr.rounds_.resize(std::max(rounds, 1u));
  if (rounds == 0) return;
  const Tag base = alloc_tags(rounds);
  // One sink byte per round plus the token byte everyone circulates.
  cr.scratch_.resize(rounds + 1);
  cr.scratch_[rounds] = std::byte{0x42};
  const std::span<std::byte> scratch(cr.scratch_);
  std::uint32_t prev_recv = kNoOp;
  std::uint32_t prev_send = kNoOp;
  unsigned r = 0;
  for (unsigned d = 1; d < n; d <<= 1, ++r) {
    const unsigned to = (me + d) % n;
    const unsigned from = (me + n - d) % n;
    const std::uint32_t snd =
        cr.sched_.send(to, base + r, scratch.subspan(rounds, 1),
                       static_cast<std::uint16_t>(r));
    const std::uint32_t rcv =
        cr.sched_.recv(from, base + r, scratch.subspan(r, 1),
                       static_cast<std::uint16_t>(r));
    // Round r may only signal distance 2^r once the *whole* of round r-1
    // is behind us: the r-1 recv directly, and — via the send->send chain
    // — every earlier round's recv too.  Depending on the recv alone is
    // not enough: rank i's round-r token must carry knowledge of ranks
    // i-1 .. i-(2^r - 1), which only the transitive closure provides
    // (with recv-only deps, rank 4 of 8 can leave before rank 7 arrives).
    // Round-r recvs are posted eagerly (tags keep the rounds apart).
    if (prev_recv != kNoOp) cr.sched_.dep(prev_recv, snd);
    if (prev_send != kNoOp) cr.sched_.dep(prev_send, snd);
    prev_recv = rcv;
    prev_send = snd;
  }
}

// ----------------------------------------------------------- binomial bcast

void Engine::build_bcast(CollRequest& cr, std::span<std::byte> buffer,
                         int root, std::size_t chunks) {
  const unsigned n = world_;
  const unsigned me = rank();
  const unsigned uroot = static_cast<unsigned>(root);
  PM2_ASSERT(uroot < n);
  PM2_ASSERT_MSG(chunks <= 0xffffu, "too many bcast chunks for round stamps");
  cr.rounds_.resize(std::max<std::size_t>(chunks, 1));
  if (n <= 1 || chunks == 0) return;
  const auto C = static_cast<std::uint32_t>(chunks);
  const Tag base = alloc_tags(C);
  const unsigned vrank = (me + n - uroot) % n;
  std::vector<std::uint32_t> got(C, kNoOp);  // my recv op per chunk
  unsigned mask = 1;
  if (vrank != 0) {
    while (mask < n && (vrank & mask) == 0) mask <<= 1;
    const unsigned parent = ((vrank - mask) + uroot) % n;
    for (std::uint32_t k = 0; k < C; ++k) {
      const Range c = chunk_of(buffer.size(), C, k);
      got[k] = cr.sched_.recv(parent, base + k, buffer.subspan(c.lo, c.len),
                              static_cast<std::uint16_t>(k));
    }
  } else {
    while (mask < n) mask <<= 1;
  }
  // Forward each chunk to my subtree as soon as *that chunk* has arrived:
  // with C > 1 the tree stages overlap in a pipeline.
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask >= n) continue;
    const unsigned child = (vrank + mask + uroot) % n;
    for (std::uint32_t k = 0; k < C; ++k) {
      const Range c = chunk_of(buffer.size(), C, k);
      const std::uint32_t snd = cr.sched_.send(
          child, base + k,
          std::span<const std::byte>(buffer.subspan(c.lo, c.len)),
          static_cast<std::uint16_t>(k));
      if (got[k] != kNoOp) cr.sched_.dep(got[k], snd);
    }
  }
}

// --------------------------------------------------------- ring iallreduce

void Engine::build_allreduce_ring(CollRequest& cr, std::span<double> data) {
  const unsigned n = world_;
  const unsigned me = rank();
  const std::size_t total = data.size();
  if (n <= 1 || total == 0) {
    cr.rounds_.resize(1);
    return;
  }
  // Reduce-scatter then allgather around the ring, each block cut into P
  // chunks so a block streams through the rendezvous path instead of
  // serialising step by step.
  const std::size_t maxlen = (total + n - 1) / n;
  const auto P = std::max<std::uint32_t>(1, chunk_count(maxlen * sizeof(double)));
  const unsigned steps = n - 1;
  PM2_ASSERT_MSG(2u * steps <= 0xffffu, "world too large for round stamps");
  cr.rounds_.resize(2u * steps);
  const Tag base = alloc_tags(2u * steps * P);
  const unsigned right = (me + 1) % n;
  const unsigned left = (me + n - 1) % n;
  cr.scratch_d_.resize(static_cast<std::size_t>(steps) * maxlen);

  const auto block_of = [&](unsigned b) {
    return Range{total * b / n, total * (b + 1) / n - total * b / n};
  };

  std::vector<std::uint32_t> prev_reduce(P, kNoOp);
  std::vector<std::uint32_t> send1(static_cast<std::size_t>(steps) * P, kNoOp);

  // Phase 1 — reduce-scatter: at step s I forward chunk k of block
  // (me - s) rightwards and fold chunk k of block (me - s - 1), received
  // from the left into this step's inbox, into my vector.
  for (unsigned s = 0; s < steps; ++s) {
    const unsigned send_b = (me + n - s) % n;
    const unsigned recv_b = (me + n - s - 1) % n;
    const Range sb = block_of(send_b);
    const Range rb = block_of(recv_b);
    const std::span<double> inbox =
        std::span<double>(cr.scratch_d_).subspan(s * maxlen, maxlen);
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range sc = chunk_of(sb.len, P, k);
      if (sc.len > 0) {
        const std::uint32_t snd = cr.sched_.send(
            right, base + s * P + k,
            bytes_of(data.subspan(sb.lo + sc.lo, sc.len)),
            static_cast<std::uint16_t>(s));
        // I forward a block only after folding in what arrived for it
        // last step (same block: send_b(s) == recv_b(s-1)).
        if (prev_reduce[k] != kNoOp) cr.sched_.dep(prev_reduce[k], snd);
        send1[static_cast<std::size_t>(s) * P + k] = snd;
      }
      const Range rc = chunk_of(rb.len, P, k);
      if (rc.len > 0) {
        const std::span<double> in = inbox.subspan(rc.lo, rc.len);
        const std::uint32_t rcv =
            cr.sched_.recv(left, base + s * P + k, wbytes_of(in),
                           static_cast<std::uint16_t>(s));
        const std::uint32_t red = cr.sched_.reduce(
            data.subspan(rb.lo + rc.lo, rc.len),
            std::span<const double>(in), static_cast<std::uint16_t>(s));
        cr.sched_.dep(rcv, red);
        prev_reduce[k] = red;
      } else {
        prev_reduce[k] = kNoOp;
      }
    }
  }

  // Phase 2 — allgather: fully reduced blocks circulate once around.
  std::vector<std::uint32_t> prev_recv2(P, kNoOp);
  for (unsigned s = 0; s < steps; ++s) {
    const unsigned send_b = (me + 1 + n - s) % n;
    const unsigned recv_b = (me + n - s) % n;
    const Range sb = block_of(send_b);
    const Range rb = block_of(recv_b);
    const auto round = static_cast<std::uint16_t>(steps + s);
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range sc = chunk_of(sb.len, P, k);
      if (sc.len > 0) {
        const std::uint32_t snd = cr.sched_.send(
            right, base + (steps + s) * P + k,
            bytes_of(data.subspan(sb.lo + sc.lo, sc.len)), round);
        if (s == 0) {
          // Block (me + 1) became final in my last phase-1 reduce.
          if (prev_reduce[k] != kNoOp) cr.sched_.dep(prev_reduce[k], snd);
        } else if (prev_recv2[k] != kNoOp) {
          cr.sched_.dep(prev_recv2[k], snd);
        }
      }
      const Range rc = chunk_of(rb.len, P, k);
      if (rc.len > 0) {
        const std::uint32_t rcv = cr.sched_.recv(
            left, base + (steps + s) * P + k,
            wbytes_of(data.subspan(rb.lo + rc.lo, rc.len)), round);
        // Anti dependency: this recv overwrites block (me - s), which my
        // phase-1 step-s send may still be reading.
        const std::uint32_t war = send1[static_cast<std::size_t>(s) * P + k];
        if (war != kNoOp) cr.sched_.dep(war, rcv);
        prev_recv2[k] = rcv;
      } else {
        prev_recv2[k] = kNoOp;
      }
    }
  }
}

// --------------------------------------- recursive-doubling iallreduce

void Engine::build_allreduce_rd(CollRequest& cr, std::span<double> data) {
  const unsigned n = world_;
  const unsigned me = rank();
  const std::size_t total = data.size();
  if (n <= 1 || total == 0) {
    cr.rounds_.resize(1);
    return;
  }
  const auto P = std::max<std::uint32_t>(1, chunk_count(total * sizeof(double)));
  unsigned pof2 = 1;
  unsigned nrounds = 0;
  while (pof2 * 2 <= n) {
    pof2 *= 2;
    ++nrounds;
  }
  const unsigned rem = n - pof2;
  PM2_ASSERT_MSG(nrounds + 2 <= 0xffffu, "world too large for round stamps");
  // Rounds: 0 = fold-in (odd ranks below 2*rem push their vector to the
  // even neighbour), 1..nrounds = doubling exchanges, nrounds+1 = fold-out.
  cr.rounds_.resize(nrounds + 2);
  const Tag base = alloc_tags(P * (nrounds + 2));
  const Tag pre_base = base;
  const Tag post_base = base + P * (nrounds + 1);
  const std::uint16_t pre_round = 0;
  const auto post_round = static_cast<std::uint16_t>(nrounds + 1);
  const auto chunk_abs = [&](std::uint32_t k) { return chunk_of(total, P, k); };

  if (me < 2 * rem && (me % 2) == 1) {
    // Folded-out rank: contribute the vector, then receive the result.
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range c = chunk_abs(k);
      if (c.len == 0) continue;
      const std::uint32_t snd = cr.sched_.send(
          me - 1, pre_base + k, bytes_of(data.subspan(c.lo, c.len)),
          pre_round);
      const std::uint32_t rcv = cr.sched_.recv(
          me - 1, post_base + k, wbytes_of(data.subspan(c.lo, c.len)),
          post_round);
      // Anti dependency: the result lands where the contribution reads.
      cr.sched_.dep(snd, rcv);
    }
    return;
  }

  const bool absorbing = me < 2 * rem;  // even rank with a folded neighbour
  const unsigned newrank = absorbing ? me / 2 : me - rem;
  // One full-vector inbox per doubling round (plus one for the fold-in),
  // so recvs of different rounds never wait on each other's buffer.
  cr.scratch_d_.resize(
      static_cast<std::size_t>(nrounds + (absorbing ? 1 : 0)) * total);
  const auto inbox = [&](unsigned slot) {
    return std::span<double>(cr.scratch_d_)
        .subspan(static_cast<std::size_t>(slot) * total, total);
  };

  std::vector<std::uint32_t> last_write(P, kNoOp);
  if (absorbing) {
    const std::span<double> in = inbox(nrounds);
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range c = chunk_abs(k);
      if (c.len == 0) continue;
      const std::uint32_t rcv = cr.sched_.recv(
          me + 1, pre_base + k, wbytes_of(in.subspan(c.lo, c.len)),
          pre_round);
      const std::uint32_t red = cr.sched_.reduce(
          data.subspan(c.lo, c.len),
          std::span<const double>(in.subspan(c.lo, c.len)), pre_round);
      cr.sched_.dep(rcv, red);
      last_write[k] = red;
    }
  }

  for (unsigned j = 0; j < nrounds; ++j) {
    const unsigned pn = newrank ^ (1u << j);
    const unsigned partner = pn < rem ? pn * 2 : pn + rem;
    const std::span<double> in = inbox(j);
    const auto round = static_cast<std::uint16_t>(1 + j);
    const Tag rbase = base + P * (1 + j);
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range c = chunk_abs(k);
      if (c.len == 0) continue;
      const std::uint32_t snd = cr.sched_.send(
          partner, rbase + k, bytes_of(data.subspan(c.lo, c.len)), round);
      if (last_write[k] != kNoOp) cr.sched_.dep(last_write[k], snd);
      const std::uint32_t rcv = cr.sched_.recv(
          partner, rbase + k, wbytes_of(in.subspan(c.lo, c.len)), round);
      const std::uint32_t red = cr.sched_.reduce(
          data.subspan(c.lo, c.len),
          std::span<const double>(in.subspan(c.lo, c.len)), round);
      cr.sched_.dep(rcv, red);
      // Anti dependency: the reduce rewrites the chunk the send reads.
      cr.sched_.dep(snd, red);
      last_write[k] = red;
    }
  }

  if (absorbing) {
    for (std::uint32_t k = 0; k < P; ++k) {
      const Range c = chunk_abs(k);
      if (c.len == 0) continue;
      const std::uint32_t snd = cr.sched_.send(
          me + 1, post_base + k, bytes_of(data.subspan(c.lo, c.len)),
          post_round);
      if (last_write[k] != kNoOp) cr.sched_.dep(last_write[k], snd);
    }
  }
}

// ----------------------------------------------------- linear gather/scatter

void Engine::build_gather(CollRequest& cr, std::span<const std::byte> send,
                          std::span<std::byte> recv, int root) {
  const unsigned n = world_;
  const unsigned me = rank();
  const unsigned uroot = static_cast<unsigned>(root);
  PM2_ASSERT(uroot < n);
  const std::size_t block = send.size();
  cr.rounds_.resize(1);
  if (me == uroot) {
    PM2_ASSERT(recv.size() >= block * n);
    if (block > 0) cr.sched_.copy(recv.subspan(me * block, block), send, 0);
    if (n <= 1) return;
    const Tag base = alloc_tags(1);
    // One tag serves all peers: matching is per (src, tag).
    for (unsigned r = 0; r < n; ++r) {
      if (r == me) continue;
      cr.sched_.recv(r, base, recv.subspan(r * block, block), 0);
    }
  } else {
    const Tag base = alloc_tags(1);
    cr.sched_.send(uroot, base, send, 0);
  }
}

void Engine::build_scatter(CollRequest& cr, std::span<const std::byte> send,
                           std::span<std::byte> recv, int root) {
  const unsigned n = world_;
  const unsigned me = rank();
  const unsigned uroot = static_cast<unsigned>(root);
  PM2_ASSERT(uroot < n);
  const std::size_t block = recv.size();
  cr.rounds_.resize(1);
  if (me == uroot) {
    PM2_ASSERT(send.size() >= block * n);
    if (block > 0) cr.sched_.copy(recv, send.subspan(me * block, block), 0);
    if (n <= 1) return;
    const Tag base = alloc_tags(1);
    for (unsigned r = 0; r < n; ++r) {
      if (r == me) continue;
      cr.sched_.send(r, base, send.subspan(r * block, block), 0);
    }
  } else {
    const Tag base = alloc_tags(1);
    cr.sched_.recv(uroot, base, recv, 0);
  }
}

// ------------------------------------------------------------ ring allgather

void Engine::build_allgather(CollRequest& cr, std::span<const std::byte> send,
                             std::span<std::byte> recv) {
  const unsigned n = world_;
  const unsigned me = rank();
  const std::size_t block = send.size();
  PM2_ASSERT(recv.size() >= block * n);
  cr.rounds_.resize(n <= 1 ? 1 : n - 1);
  if (block > 0) cr.sched_.copy(recv.subspan(me * block, block), send, 0);
  if (n <= 1 || block == 0) return;
  const Tag base = alloc_tags(n - 1);
  const unsigned right = (me + 1) % n;
  const unsigned left = (me + n - 1) % n;
  std::uint32_t prev_recv = kNoOp;
  for (unsigned s = 0; s < n - 1; ++s) {
    const unsigned in_b = (me + n - s - 1) % n;
    const std::uint32_t rcv = cr.sched_.recv(
        left, base + s, recv.subspan(in_b * block, block),
        static_cast<std::uint16_t>(s));
    if (s == 0) {
      // First hop forwards my own block straight from the user buffer —
      // no wait on the local copy op.
      cr.sched_.send(right, base + s, send, 0);
    } else {
      const unsigned out_b = (me + n - s) % n;
      const std::uint32_t snd = cr.sched_.send(
          right, base + s,
          std::span<const std::byte>(recv.subspan(out_b * block, block)),
          static_cast<std::uint16_t>(s));
      cr.sched_.dep(prev_recv, snd);  // forward only what has landed
    }
    prev_recv = rcv;
  }
}

// ----------------------------------------------------------- Bruck allgather

void Engine::build_allgather_bruck(CollRequest& cr,
                                   std::span<const std::byte> send,
                                   std::span<std::byte> recv) {
  const unsigned n = world_;
  const unsigned me = rank();
  const std::size_t block = send.size();
  PM2_ASSERT(recv.size() >= block * n);
  unsigned rounds = 0;
  for (unsigned d = 1; d < n; d <<= 1) ++rounds;
  cr.rounds_.resize(std::max(rounds, 1u));
  if (n <= 1 || block == 0) {
    if (block > 0) cr.sched_.copy(recv.first(block), send, 0);
    return;
  }
  const Tag base = alloc_tags(rounds);
  // Rotated layout: scratch block i holds rank (me + 1 + i) % n's block,
  // so my own block sits last and the d blocks known after a round are
  // always the trailing d.
  cr.scratch_.resize(static_cast<std::size_t>(n) * block);
  cr.scratch_per_rank_ = true;
  const std::span<std::byte> rot(cr.scratch_);
  const auto blocks = [&](unsigned first, unsigned count) {
    return rot.subspan(static_cast<std::size_t>(first) * block,
                       static_cast<std::size_t>(count) * block);
  };
  std::uint32_t prev_send = cr.sched_.copy(blocks(n - 1, 1), send, 0);
  std::uint32_t prev_recv = kNoOp;
  unsigned r = 0;
  for (unsigned d = 1; d < n; d <<= 1, ++r) {
    // Round d: forward my trailing min(d, n - d) blocks to me + d and take
    // the same count from me - d just below them — the dissemination
    // barrier's partners.  Every region is written once and only read
    // after, so the send->send chain (plus the previous recv) is the whole
    // dependency set: no anti edges.
    const unsigned count = std::min(d, n - d);
    const auto round = static_cast<std::uint16_t>(r);
    const std::uint32_t snd = cr.sched_.send(
        (me + d) % n, base + r,
        std::span<const std::byte>(blocks(n - count, count)), round);
    const std::uint32_t rcv = cr.sched_.recv(
        (me + n - d) % n, base + r, blocks(n - d - count, count), round);
    cr.sched_.dep(prev_send, snd);
    if (prev_recv != kNoOp) cr.sched_.dep(prev_recv, snd);
    prev_send = snd;
    prev_recv = rcv;
  }
  // Un-rotate: scratch blocks [0, n - 1 - me) are ranks me + 1 .. n - 1,
  // the rest ranks 0 .. me.  The last send closes over every earlier
  // recv, the last recv is the one left.
  const auto last = static_cast<std::uint16_t>(rounds - 1);
  const unsigned high = n - 1 - me;
  const std::uint32_t lo_copy =
      cr.sched_.copy(recv.first(static_cast<std::size_t>(me + 1) * block),
                     blocks(high, me + 1), last);
  cr.sched_.dep(prev_send, lo_copy);
  cr.sched_.dep(prev_recv, lo_copy);
  if (high > 0) {
    const std::uint32_t hi_copy = cr.sched_.copy(
        recv.subspan(static_cast<std::size_t>(me + 1) * block,
                     static_cast<std::size_t>(high) * block),
        blocks(0, high), last);
    cr.sched_.dep(prev_send, hi_copy);
    cr.sched_.dep(prev_recv, hi_copy);
  }
}

// --------------------------------------------------------- pairwise alltoall

void Engine::build_alltoall(CollRequest& cr, std::span<const std::byte> send,
                            std::span<std::byte> recv, std::size_t block) {
  const unsigned n = world_;
  const unsigned me = rank();
  PM2_ASSERT(send.size() >= block * n && recv.size() >= block * n);
  cr.rounds_.resize(1);
  if (block > 0) {
    cr.sched_.copy(recv.subspan(me * block, block),
                   send.subspan(me * block, block), 0);
  }
  if (n <= 1 || block == 0) return;
  const Tag base = alloc_tags(1);
  // Pairwise offsets: at distance d everyone talks to (me ± d), so no
  // single rank becomes everyone's first target.
  for (unsigned d = 1; d < n; ++d) {
    const unsigned to = (me + d) % n;
    const unsigned from = (me + n - d) % n;
    cr.sched_.send(to, base, send.subspan(to * block, block), 0);
    cr.sched_.recv(from, base, recv.subspan(from * block, block), 0);
  }
}

}  // namespace pm2::nm::coll
