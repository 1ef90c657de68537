#include "device/channel.h"

#include <algorithm>
#include <cstddef>

#include "crypto/hash.h"
#include "device/fault_injector.h"

namespace ghostdb::device {

void Channel::Transfer(Direction direction, const std::string& label,
                       const uint8_t* payload, uint64_t bytes) {
  uint64_t digest = 0;
  if (payload != nullptr) {
    digest = crypto::HashBytes(payload, bytes, /*seed=*/0x6864);
  }
  transcript_.push_back(
      ChannelMessage{direction, label, bytes, digest, current_session_});
  bytes_moved_[static_cast<size_t>(direction)] += bytes;
  if (throughput_ > 0 && bytes > 0) {
    auto scope = clock_->Enter("comm");
    clock_->Advance(static_cast<SimNanos>(
        static_cast<double>(bytes) / throughput_ * kSecond));
  }
  if (injector_ != nullptr) {
    injector_->MaybeStallChannel();
  }
}

void Channel::EraseTranscript(size_t first, size_t count) {
  first = std::min(first, transcript_.size());
  count = std::min(count, transcript_.size() - first);
  for (size_t i = first; i < first + count; ++i) {
    const ChannelMessage& m = transcript_[i];
    bytes_moved_[static_cast<size_t>(m.direction)] -= m.bytes;
  }
  transcript_.erase(
      transcript_.begin() + static_cast<std::ptrdiff_t>(first),
      transcript_.begin() + static_cast<std::ptrdiff_t>(first + count));
}

}  // namespace ghostdb::device
