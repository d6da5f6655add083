#include "src/obs/trace.h"

#include <cstdio>

#include "src/snapshot/archive.h"
#include "src/util/json.h"

namespace androne {

namespace {

struct CategoryName {
  uint32_t bit;
  const char* name;
};

constexpr CategoryName kCategoryNames[] = {
    {kTraceClock, "clock"},     {kTraceRt, "rt"},
    {kTraceBinder, "binder"},   {kTraceMavlink, "mavlink"},
    {kTraceNet, "net"},         {kTraceContainer, "container"},
    {kTraceFlight, "flight"},
};

char KindLetter(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kInstant:
      return 'I';
    case TraceEventKind::kBegin:
      return 'B';
    case TraceEventKind::kEnd:
      return 'E';
    case TraceEventKind::kCounter:
      return 'C';
  }
  return '?';
}

const char* ChromePhase(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kInstant:
      return "i";
    case TraceEventKind::kBegin:
      return "B";
    case TraceEventKind::kEnd:
      return "E";
    case TraceEventKind::kCounter:
      return "C";
  }
  return "i";
}

}  // namespace

const char* TraceCategoryName(uint32_t category_bit) {
  for (const CategoryName& entry : kCategoryNames) {
    if (entry.bit == category_bit) {
      return entry.name;
    }
  }
  return "?";
}

uint32_t ParseTraceCategories(std::string_view spec) {
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    std::string_view token = spec.substr(pos, comma - pos);
    if (token == "all") {
      mask |= kTraceAll;
    } else {
      for (const CategoryName& entry : kCategoryNames) {
        if (token == entry.name) {
          mask |= entry.bit;
          break;
        }
      }
    }
    pos = comma + 1;
  }
  return mask;
}

TraceRecorder::TraceRecorder(uint32_t categories, size_t capacity)
    : categories_(categories), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  // Id 0 is reserved as "unnamed" so a zero-initialized name id is safe.
  names_.push_back("?");
}

uint32_t TraceRecorder::InternName(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& TraceRecorder::NameOf(uint32_t name_id) const {
  return names_[name_id < names_.size() ? name_id : 0];
}

void TraceRecorder::Record(uint32_t category, TraceEventKind kind,
                           uint32_t name_id, int32_t container, int64_t arg) {
  if (!enabled(category)) {
    return;
  }
  TraceEvent ev;
  ev.ts = clock_ != nullptr ? clock_->now() : 0;
  ev.category = category;
  ev.name_id = name_id;
  ev.kind = kind;
  ev.container = container;
  ev.arg = arg;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string TraceRecorder::ExportText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "# trace events=%zu recorded=%llu dropped=%llu "
                "categories=0x%02x\n",
                ring_.size(), static_cast<unsigned long long>(recorded_),
                static_cast<unsigned long long>(dropped()), categories_);
  out += line;
  for (const TraceEvent& ev : Events()) {
    std::snprintf(line, sizeof(line),
                  "%012lld %-9s %c %-24s container=%d arg=%lld\n",
                  static_cast<long long>(ev.ts),
                  TraceCategoryName(ev.category), KindLetter(ev.kind),
                  NameOf(ev.name_id).c_str(), ev.container,
                  static_cast<long long>(ev.arg));
    out += line;
  }
  return out;
}

std::string TraceRecorder::ExportChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char buf[128];
  for (const TraceEvent& ev : Events()) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(NameOf(ev.name_id));
    out += "\",\"cat\":\"";
    out += TraceCategoryName(ev.category);
    out += "\",\"ph\":\"";
    out += ChromePhase(ev.kind);
    out += "\",\"pid\":0,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%d", ev.container);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%lld.%03lld",
                  static_cast<long long>(ev.ts / 1000),
                  static_cast<long long>(ev.ts % 1000));
    out += buf;
    if (ev.kind == TraceEventKind::kInstant) {
      out += ",\"s\":\"t\"";
    }
    if (ev.kind == TraceEventKind::kCounter) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%lld}",
                    static_cast<long long>(ev.arg));
      out += buf;
    } else if (ev.arg != 0) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"arg\":%lld}",
                    static_cast<long long>(ev.arg));
      out += buf;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void TraceRecorder::Clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
}

template <class Ar>
Status TraceRecorder::Visit(Ar& ar) {
  ar.Section("TRCE");
  uint32_t categories = categories_;
  uint64_t capacity = capacity_;
  ar.U32(categories);
  ar.U64(capacity);
  if (categories != categories_ || capacity != capacity_) {
    ar.Fail(InvalidArgumentError(
        "trace checkpoint was recorded with a different category mask or "
        "ring capacity than this recorder"));
  }
  ar.U64(recorded_);
  ar.U64(head_);
  ar.Seq(ring_, [&](TraceEvent& ev) {
    ar.I64(ev.ts);
    ar.U32(ev.category);
    ar.U32(ev.name_id);
    ar.Enum(ev.kind, TraceEventKind::kCounter);
    ar.U32(ev.container);
    ar.I64(ev.arg);
  });
  // Record() overwrites ring_[head_] once the ring is full, so the ring
  // may never outgrow the capacity and the head must index into it.
  if (ring_.size() > capacity_ || recorded_ < ring_.size() ||
      (head_ != 0 && head_ >= ring_.size())) {
    ar.Fail(InvalidArgumentError(
        "trace checkpoint ring is inconsistent: size " +
        std::to_string(ring_.size()) + ", capacity " +
        std::to_string(capacity_) + ", head " + std::to_string(head_) +
        ", recorded " + std::to_string(recorded_)));
  }
  // The reserved "?" entry at id 0 is recreated by the constructor.
  uint64_t names = ar.Size(names_.size() - 1);
  for (uint64_t i = 0; i < names && ar.ok(); ++i) {
    std::string name = i + 1 < names_.size() ? names_[i + 1] : std::string();
    ar.Str(name);
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) {
        break;
      }
      if (i + 1 >= names_.size()) {
        InternName(name);
      } else if (names_[i + 1] != name) {
        // Instrumentation already re-interned this id during the restored
        // world's wiring; the orders must agree or every cached id is wrong.
        ar.Fail(InvalidArgumentError(
            "trace checkpoint name table diverges from this world's "
            "instrumentation at id " + std::to_string(i + 1) + ": saved '" +
            name + "' vs live '" + names_[i + 1] + "'"));
      }
    }
  }
  return ar.status();
}

template Status TraceRecorder::Visit(SaveArchive&);
template Status TraceRecorder::Visit(LoadArchive&);

void AttachClockTrace(SimClock* clock, TraceRecorder* trace,
                      uint64_t sample_every) {
  if (clock == nullptr || trace == nullptr || !trace->enabled(kTraceClock)) {
    return;
  }
  if (sample_every == 0) {
    sample_every = 1;
  }
  uint32_t name = trace->InternName("clock.dispatch");
  // The hook reads the clock's own dispatch counter rather than keeping a
  // private one: the count then survives checkpoint/restore (events_run is
  // part of the snapshot), so a recovered world's sampled counter events
  // land at the same dispatch numbers as the uninterrupted run's. The hook
  // never touches the event being dispatched, so tracing cannot perturb
  // the run.
  const SimClock* counted = clock;
  clock->SetDispatchHook([trace, name, sample_every, counted](SimTime) {
    uint64_t count = counted->events_run();
    if (count % sample_every == 0) {
      trace->Counter(kTraceClock, name, static_cast<int64_t>(count));
    }
  });
}

}  // namespace androne
