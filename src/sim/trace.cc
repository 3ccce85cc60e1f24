#include "sim/trace.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace tta::sim {

namespace {

/** Minimal JSON string escaping (names are ASCII identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
emitComma(std::ostream &os, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
}

} // namespace

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceWarp:
        return "warp";
      case TraceRta:
        return "rta";
      case TracePipe:
        return "pipe";
      case TraceMem:
        return "mem";
      case TraceOp:
        return "op";
      case TraceSched:
        return "sched";
      default:
        return "?";
    }
}

std::vector<TraceEvent>
TraceStream::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ once the ring has wrapped.
    size_t start = size_ < ring_.size() ? 0 : head_;
    for (size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

Tracer::Tracer(uint32_t category_mask, size_t ring_capacity)
    : mask_(category_mask & TraceAllCategories),
      ringCapacity_(ring_capacity ? ring_capacity : 1)
{}

TraceStream *
Tracer::stream(const std::string &name, TraceCategory cat)
{
    if (!wants(cat))
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(name);
    if (it == streams_.end()) {
        auto s = std::unique_ptr<TraceStream>(
            new TraceStream(name, nextTid_++, cat, ringCapacity_));
        it = streams_.emplace(name, std::move(s)).first;
    }
    return it->second.get();
}

uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto &kv : streams_)
        total += kv.second->dropped();
    return total;
}

void
Tracer::writeEvents(std::ostream &os, uint32_t pid,
                    const std::string &process_name, bool &first) const
{
    emitComma(os, first);
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
       << jsonEscape(process_name) << "\"}}";

    // Streams export in name order (streams_ is an ordered map) with
    // tids renumbered sequentially, so the document does not depend on
    // the order lazily-created streams (per-warp spans) were created in.
    std::lock_guard<std::mutex> lock(mutex_);
    uint32_t tid = 0;
    for (const auto &kv : streams_) {
        const TraceStream *s = kv.second.get();
        ++tid;
        emitComma(os, first);
        os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(s->name()) << "\"}}";

        auto events = s->snapshot();
        // Components may emit out of strict cycle order (e.g. a span whose
        // end was computed at dispatch); per-thread timestamps must be
        // non-decreasing for chrome://tracing, so sort. stable_sort keeps
        // emission order for same-cycle events, preserving B-before-E.
        std::stable_sort(events.begin(), events.end(),
                         [](const TraceEvent &a, const TraceEvent &b) {
                             return a.ts < b.ts;
                         });

        const char *cat = traceCategoryName(s->category());
        // Ring-buffer drops can orphan one half of a B/E pair: skip E
        // events that close nothing and close dangling B spans at the end
        // so the exported stream is always well-formed.
        uint64_t depth = 0;
        Cycle last_ts = 0;
        std::vector<const char *> open;
        for (const auto &ev : events) {
            last_ts = std::max(last_ts, ev.ts + ev.dur);
            switch (ev.phase) {
              case 'B':
                ++depth;
                open.push_back(ev.name);
                emitComma(os, first);
                os << "{\"ph\":\"B\",\"pid\":" << pid
                   << ",\"tid\":" << tid << ",\"ts\":" << ev.ts
                   << ",\"name\":\"" << jsonEscape(ev.name)
                   << "\",\"cat\":\"" << cat << "\"}";
                break;
              case 'E':
                if (depth == 0)
                    break; // orphan close (its B was dropped)
                --depth;
                open.pop_back();
                emitComma(os, first);
                os << "{\"ph\":\"E\",\"pid\":" << pid
                   << ",\"tid\":" << tid << ",\"ts\":" << ev.ts << "}";
                break;
              case 'X':
                emitComma(os, first);
                os << "{\"ph\":\"X\",\"pid\":" << pid
                   << ",\"tid\":" << tid << ",\"ts\":" << ev.ts
                   << ",\"dur\":" << ev.dur << ",\"name\":\""
                   << jsonEscape(ev.name) << "\",\"cat\":\"" << cat
                   << "\"}";
                break;
              case 'i':
                emitComma(os, first);
                os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
                   << ",\"tid\":" << tid << ",\"ts\":" << ev.ts
                   << ",\"name\":\"" << jsonEscape(ev.name)
                   << "\",\"cat\":\"" << cat << "\"}";
                break;
              case 'C':
                emitComma(os, first);
                os << "{\"ph\":\"C\",\"pid\":" << pid
                   << ",\"tid\":" << tid << ",\"ts\":" << ev.ts
                   << ",\"name\":\"" << jsonEscape(ev.name)
                   << "\",\"cat\":\"" << cat << "\",\"args\":{\"value\":"
                   << ev.value << "}}";
                break;
              default:
                break;
            }
        }
        while (depth--) {
            emitComma(os, first);
            os << "{\"ph\":\"E\",\"pid\":" << pid << ",\"tid\":" << tid
               << ",\"ts\":" << last_ts << "}";
            open.pop_back();
        }
    }
}

void
Tracer::writeJson(std::ostream &os, const std::string &process_name) const
{
    os << "{\"traceEvents\":[\n";
    bool first = true;
    writeEvents(os, /*pid=*/1, process_name, first);
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

uint32_t
Tracer::parseMask(const std::string &spec)
{
    if (spec.empty())
        return TraceAllCategories;
    // Plain numbers (decimal or 0x...) pass through.
    if (spec.find_first_not_of("0123456789xXabcdefABCDEF") ==
        std::string::npos &&
        (std::isdigit(static_cast<unsigned char>(spec[0])) != 0)) {
        return static_cast<uint32_t>(std::strtoul(spec.c_str(), nullptr, 0)) &
               TraceAllCategories;
    }
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        if (tok == "all") {
            mask |= TraceAllCategories;
        } else if (tok == "warp") {
            mask |= TraceWarp;
        } else if (tok == "rta") {
            mask |= TraceRta;
        } else if (tok == "pipe") {
            mask |= TracePipe;
        } else if (tok == "mem") {
            mask |= TraceMem;
        } else if (tok == "op") {
            mask |= TraceOp;
        } else if (tok == "sched") {
            mask |= TraceSched;
        } else if (!tok.empty()) {
            fatal("unknown trace category '%s' (expected "
                  "warp|rta|pipe|mem|op|sched|all)", tok.c_str());
        }
        pos = comma + 1;
    }
    return mask;
}

std::string
Tracer::maskToString(uint32_t mask)
{
    mask &= TraceAllCategories;
    if (mask == TraceAllCategories)
        return "all";
    std::string out;
    for (uint32_t bit = 1; bit <= TraceSched; bit <<= 1) {
        if (!(mask & bit))
            continue;
        if (!out.empty())
            out += ',';
        out += traceCategoryName(static_cast<TraceCategory>(bit));
    }
    return out.empty() ? "none" : out;
}

} // namespace tta::sim
