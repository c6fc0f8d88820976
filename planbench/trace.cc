#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>

namespace planbench {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<int64_t> next_op_id{0};

}  // namespace

// The buffer the calling thread records into; null = not traced.
static thread_local void* t_buffer = nullptr;

void Tracer::Attach() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  t_buffer = buffers_.back().get();
}

void Tracer::Detach() { t_buffer = nullptr; }

bool Tracer::Active() { return t_buffer != nullptr; }

void Tracer::BeginOp(const char* kind, bool breakdown) {
  auto* buffer = static_cast<Buffer*>(t_buffer);
  if (buffer == nullptr) return;
  buffer->op = next_op_id.fetch_add(1);
  buffer->roots.push_back(static_cast<int32_t>(buffer->spans.size()));
  buffer->root_breakdown.push_back(breakdown ? 1 : 0);
  Push(kind, "client");
}

void Tracer::EndOp() {
  auto* buffer = static_cast<Buffer*>(t_buffer);
  if (buffer == nullptr) return;
  Pop(buffer->roots.back());
  buffer->op = -1;
}

int32_t Tracer::Push(const char* name, const char* layer) {
  auto* buffer = static_cast<Buffer*>(t_buffer);
  if (buffer == nullptr || buffer->op < 0) return -1;
  Span span;
  span.op = buffer->op;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.name = name;
  span.layer = layer;
  const auto index = static_cast<int32_t>(buffer->spans.size());
  buffer->open.push_back(index);
  span.start_us = NowUs();
  buffer->spans.push_back(span);
  return index;
}

void Tracer::Pop(int32_t index) {
  auto* buffer = static_cast<Buffer*>(t_buffer);
  if (buffer == nullptr || index < 0) return;
  buffer->spans[static_cast<size_t>(index)].end_us = NowUs();
  buffer->open.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out.precision(17);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      out << "{\"op\":" << span.op << ",\"parent\":" << span.parent
          << ",\"name\":\"" << span.name << "\",\"layer\":\"" << span.layer
          << "\",\"start_us\":" << span.start_us
          << ",\"end_us\":" << span.end_us << "}\n";
    }
  }
  return out.good();
}

Tracer::Summary Tracer::Summarize() const {
  Summary summary;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    // Child time covered inside each span: its children are sequential on
    // this thread and nested inside it.
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] +=
            span.end_us - span.start_us;
      }
    }
    for (size_t r = 0; r < buffer->roots.size(); ++r) {
      const auto begin = static_cast<size_t>(buffer->roots[r]);
      const size_t end = r + 1 < buffer->roots.size()
                             ? static_cast<size_t>(buffer->roots[r + 1])
                             : spans.size();
      const bool breakdown = buffer->root_breakdown[r] != 0;
      const double root_us = spans[begin].end_us - spans[begin].start_us;
      double self_sum_us = 0.0;
      for (size_t i = begin; i < end; ++i) {
        const Span& span = spans[i];
        const double duration_us = span.end_us - span.start_us;
        const double self_us = duration_us - child_us[i];
        self_sum_us += self_us;
        summary.durations_us[span.name].push_back(duration_us);
        if (breakdown) {
          summary.self_us_by_layer[span.layer] += self_us;
          summary.self_us_by_name[span.name] += self_us;
        }
      }
      summary.max_self_sum_error_us = std::max(
          summary.max_self_sum_error_us, std::fabs(self_sum_us - root_us));
      ++summary.ops;
      summary.spans += static_cast<int64_t>(end - begin);
      if (breakdown) {
        ++summary.breakdown_ops;
        summary.breakdown_root_us += root_us;
      }
    }
  }
  return summary;
}

}  // namespace planbench
