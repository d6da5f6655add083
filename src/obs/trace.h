// Deterministic structured tracing (DESIGN.md §11). A TraceRecorder is a
// per-world, fixed-capacity ring buffer of binary TraceEvents stamped with
// simulated time. Recording is gated by a category bitmask so a disabled
// category costs one branch at the call site and nothing else; recording
// never touches simulation state, so a traced world flies the bit-identical
// flight of an untraced one (the determinism tests assert this).
//
// Exporters: ExportText() is a compact line-per-event format that is
// byte-stable across runs and executor thread counts (the trace-golden and
// determinism harnesses diff it); ExportChromeJson() emits the Chrome
// trace_event JSON array format loadable in chrome://tracing or Perfetto.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace androne {

// Trace category bits, one per instrumented layer. A recorder's mask is the
// OR of the categories it keeps; everything else is dropped at the gate.
inline constexpr uint32_t kTraceClock = 1u << 0;      // SimClock dispatch.
inline constexpr uint32_t kTraceRt = 1u << 1;         // Deadline misses/storms.
inline constexpr uint32_t kTraceBinder = 1u << 2;     // Binder transactions.
inline constexpr uint32_t kTraceMavlink = 1u << 3;    // Frame encode + flush.
inline constexpr uint32_t kTraceNet = 1u << 4;        // Channel + VPN.
inline constexpr uint32_t kTraceContainer = 1u << 5;  // Lifecycle transitions.
inline constexpr uint32_t kTraceFlight = 1u << 6;     // Safety supervisor.
inline constexpr uint32_t kTraceAll =
    kTraceClock | kTraceRt | kTraceBinder | kTraceMavlink | kTraceNet |
    kTraceContainer | kTraceFlight;

// Short lowercase name of a single category bit ("clock", "binder", ...);
// "?" for an unknown bit.
const char* TraceCategoryName(uint32_t category_bit);

// Parses a comma-separated category list ("binder,net", "all", "") into a
// mask. Unknown names are ignored; empty input is 0 (tracing off).
uint32_t ParseTraceCategories(std::string_view spec);

enum class TraceEventKind : uint8_t {
  kInstant = 0,  // A point event.
  kBegin,        // Span open (nests).
  kEnd,          // Span close.
  kCounter,      // A sampled counter value in |arg|.
};

struct TraceEvent {
  SimTime ts = 0;          // Simulated time, nanoseconds.
  uint32_t category = 0;   // Exactly one category bit.
  uint32_t name_id = 0;    // Interned name (TraceRecorder::InternName).
  TraceEventKind kind = TraceEventKind::kInstant;
  int32_t container = -1;  // Tenant/container id; -1 when not applicable.
  int64_t arg = 0;         // Counter value or kind-specific detail.
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 14;

  explicit TraceRecorder(uint32_t categories = kTraceAll,
                         size_t capacity = kDefaultCapacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Timestamps come from |clock|; events recorded with no clock bound are
  // stamped 0 (unit tests exercise the buffer without a clock).
  void BindClock(const SimClock* clock) { clock_ = clock; }

  bool enabled(uint32_t category) const {
    return (categories_ & category) != 0;
  }
  uint32_t categories() const { return categories_; }
  void set_categories(uint32_t mask) { categories_ = mask; }

  // Interns |name| and returns its id, stable for the recorder's lifetime.
  // Instrumentation points intern once (at wiring time) and record by id.
  uint32_t InternName(std::string_view name);
  const std::string& NameOf(uint32_t name_id) const;
  size_t interned_names() const { return names_.size(); }

  // Core record call; drops the event unless |category| is enabled. The
  // convenience wrappers below fix the kind.
  void Record(uint32_t category, TraceEventKind kind, uint32_t name_id,
              int32_t container = -1, int64_t arg = 0);
  void Instant(uint32_t category, uint32_t name_id, int32_t container = -1,
               int64_t arg = 0) {
    Record(category, TraceEventKind::kInstant, name_id, container, arg);
  }
  void Begin(uint32_t category, uint32_t name_id, int32_t container = -1,
             int64_t arg = 0) {
    Record(category, TraceEventKind::kBegin, name_id, container, arg);
  }
  void End(uint32_t category, uint32_t name_id, int32_t container = -1,
           int64_t arg = 0) {
    Record(category, TraceEventKind::kEnd, name_id, container, arg);
  }
  void Counter(uint32_t category, uint32_t name_id, int64_t value,
               int32_t container = -1) {
    Record(category, TraceEventKind::kCounter, name_id, container, value);
  }

  // --- Accounting ---
  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  // Total events accepted (post-mask), including ones later overwritten.
  uint64_t recorded() const { return recorded_; }
  // Oldest events overwritten after the ring wrapped.
  uint64_t dropped() const { return recorded_ - ring_.size(); }
  bool wrapped() const { return recorded_ > ring_.size(); }

  // Buffered events, oldest first.
  std::vector<TraceEvent> Events() const;

  // Deterministic text export: a header line with the accounting counters,
  // then one fixed-format line per event. Byte-stable for identical event
  // streams (the golden/determinism tests rely on this).
  std::string ExportText() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}) for chrome://tracing
  // or Perfetto. Container ids map to tids so each tenant gets a row.
  std::string ExportChromeJson() const;

  // Drops buffered events and accounting; interned names are kept (cached
  // ids held by instrumentation stay valid).
  void Clear();

  // --- Checkpoint support (DESIGN.md §13) ---
  // Persists/overwrites the ring contents, accounting, and the interned
  // name table. Restore requires that the recorder's boot-time interning
  // produced a prefix of the saved table in the same order (true when the
  // restored world re-ran the identical wiring path); a mismatch means the
  // checkpoint came from differently-instrumented code and is an error.
  // Instantiated for SaveArchive and LoadArchive in trace.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  const SimClock* clock_ = nullptr;
  uint32_t categories_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // Next overwrite position once the ring is full.
  uint64_t recorded_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
};

// Wires a sampled SimClock dispatch counter into |trace| (category
// kTraceClock): every |sample_every| executed events, one counter event
// carrying the cumulative dispatch count is recorded. Replaces any dispatch
// hook already installed on the clock. No-op if |trace| is null or the
// clock category is masked off.
void AttachClockTrace(SimClock* clock, TraceRecorder* trace,
                      uint64_t sample_every = 256);

}  // namespace androne

#endif  // SRC_OBS_TRACE_H_
