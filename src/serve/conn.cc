#include "serve/conn.h"

#include <utility>

namespace treelattice {
namespace serve {

std::string ErrorLine(uint64_t id, uint64_t req, std::string_view query,
                      const Status& status) {
  ServeResponse response;
  response.id = id;
  response.req = req;
  response.query = std::string(query);
  response.error_code = std::string(StatusCodeToString(status.code()));
  response.error_message = status.message();
  return response.ToJsonLine();
}

LineProtocol::LineProtocol(size_t max_frame_bytes, size_t max_batch_queries,
                           ControlHandler control)
    : max_frame_bytes_(max_frame_bytes),
      max_batch_queries_(max_batch_queries),
      control_(std::move(control)) {}

bool LineProtocol::Step(const NdjsonFramer::Event& event, uint64_t* stream_id,
                        uint64_t* req, ServeBatch* batch,
                        std::string* answer) const {
  const std::string& line = event.line;
  if (event.kind == NdjsonFramer::EventKind::kOversized) {
    *answer = ErrorLine(++*stream_id, ++*req, "",
                        Status::InvalidArgument(
                            "request line exceeds max frame size of " +
                            std::to_string(max_frame_bytes_) + " bytes"));
    return false;
  }
  if (line.front() == '#') {
    *answer = control_ != nullptr ? control_(line) : std::string();
    if (answer->empty()) {
      *answer = ErrorLine(++*stream_id, ++*req, line,
                          Status::InvalidArgument("unknown control line"));
    }
    return false;
  }
  batch->trace = RequestTrace::Begin(++*req);
  if (Status parsed = ParseRequestLine(line, max_batch_queries_, batch);
      !parsed.ok()) {
    *answer = ErrorLine(++*stream_id, *req,
                        batch->scalar ? std::string_view(line) : "", parsed);
    return false;
  }
  // A scalar line without an id answers with the stream's next number;
  // array items echo their ids as given.
  if (batch->scalar) {
    const uint64_t id = ++*stream_id;
    if (batch->items[0].id == 0) batch->items[0].id = id;
  }
  return true;
}

NdjsonFramer::NdjsonFramer(size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes > 0 ? max_frame_bytes : 1) {}

void NdjsonFramer::Feed(std::string_view data, std::vector<Event>* out) {
  consumed_ += data.size();
  while (!data.empty()) {
    const size_t newline = data.find('\n');
    if (discarding_) {
      // Skipping the tail of an oversized frame: everything through its
      // terminating newline is dropped.
      if (newline == std::string_view::npos) {
        dropped_ += data.size();
        return;
      }
      dropped_ += newline + 1;
      data.remove_prefix(newline + 1);
      discarding_ = false;
      continue;
    }
    if (newline == std::string_view::npos) {
      // No complete frame yet; buffer, unless that would blow the limit.
      if (buffer_.size() + data.size() > max_frame_bytes_) {
        dropped_ += buffer_.size() + data.size();
        buffer_.clear();
        buffer_.shrink_to_fit();
        discarding_ = true;
        Event event;
        event.kind = EventKind::kOversized;
        out->push_back(std::move(event));
        return;
      }
      buffer_.append(data);
      return;
    }
    // A newline lands in this chunk. The completed frame is buffer_ plus
    // the chunk's prefix — check the limit before materializing it.
    if (buffer_.size() + newline > max_frame_bytes_) {
      dropped_ += buffer_.size() + newline + 1;
      buffer_.clear();
      buffer_.shrink_to_fit();
      data.remove_prefix(newline + 1);
      Event event;
      event.kind = EventKind::kOversized;
      out->push_back(std::move(event));
      continue;
    }
    Event event;
    event.kind = EventKind::kLine;
    if (buffer_.empty()) {
      event.line.assign(data.substr(0, newline));
    } else {
      event.line = std::move(buffer_);
      event.line.append(data.substr(0, newline));
      buffer_.clear();
    }
    data.remove_prefix(newline + 1);
    if (!event.line.empty() && event.line.back() == '\r') {
      event.line.pop_back();
      ++dropped_;  // the stripped '\r' (keeps byte conservation exact)
    }
    if (event.line.empty()) {
      ++dropped_;  // blank line: its newline produced no event
    } else {
      out->push_back(std::move(event));
    }
  }
}

}  // namespace serve
}  // namespace treelattice
