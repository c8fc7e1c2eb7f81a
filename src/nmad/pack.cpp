#include "nmad/pack.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "marcel/cpu.hpp"

namespace pm2::nm {
namespace {

void charge_copy(const Config& cfg, std::size_t bytes) {
  marcel::this_thread::compute(static_cast<SimDuration>(
      cfg.copy_ns_per_byte * static_cast<double>(bytes)));
}

}  // namespace

void Pack::add(std::span<const std::byte> segment) {
  PM2_ASSERT_MSG(!sent_, "Pack::add after send");
  staging_.insert(staging_.end(), segment.begin(), segment.end());
  ++segments_;
}

Request* Pack::send() {
  PM2_ASSERT_MSG(!sent_, "Pack sent twice");
  sent_ = true;
  core_.note_pack(segments_);
  // Gather cost: one pass over the payload (the inserts above are host
  // work; the modelled copy is charged here, on the sending fiber).
  charge_copy(core_.config(), staging_.size());
  return core_.isend(dst_, tag_, staging_);
}

void Unpack::add(std::span<std::byte> segment) {
  segments_.push_back(segment);
  total_ += segment.size();
}

void Unpack::recv_and_wait() {
  core_.note_pack(segments_.size());
  std::vector<std::byte> staging(total_);
  const std::uint32_t received = core_.wait(core_.irecv(src_, tag_, staging));
  PM2_ASSERT_MSG(received == total_,
                 "Unpack layout does not match the received message");
  // Scatter into the user segments.
  charge_copy(core_.config(), total_);
  std::size_t offset = 0;
  for (const auto segment : segments_) {
    if (segment.empty()) continue;  // its data() may be null
    std::memcpy(segment.data(), staging.data() + offset, segment.size());
    offset += segment.size();
  }
}

}  // namespace pm2::nm
