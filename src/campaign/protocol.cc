#include "protocol.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

#include "common/minijson.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace campaign
{

namespace
{

std::uint32_t
headerLength(const char *bytes)
{
    const auto b = [bytes](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(bytes[i]));
    };
    return (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
}

void
checkPayloadLength(std::size_t n)
{
    if (n == 0)
        throw ProtocolError("campaign frame with empty payload");
    if (n > kMaxFramePayloadBytes) {
        throw ProtocolError(
            "campaign frame claims " + std::to_string(n) +
            " payload bytes (max " +
            std::to_string(kMaxFramePayloadBytes) +
            "); treating the stream as corrupt");
    }
}

} // namespace

std::string
encodeFrame(const std::string &payload)
{
    checkPayloadLength(payload.size());
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    frame.push_back(static_cast<char>((n >> 24) & 0xff));
    frame.push_back(static_cast<char>((n >> 16) & 0xff));
    frame.push_back(static_cast<char>((n >> 8) & 0xff));
    frame.push_back(static_cast<char>(n & 0xff));
    frame += payload;
    return frame;
}

void
FrameReader::feed(const char *data, std::size_t n)
{
    buf.append(data, n);
}

std::optional<std::string>
FrameReader::next()
{
    if (buf.size() < kFrameHeaderBytes)
        return std::nullopt;
    const std::size_t n = headerLength(buf.data());
    checkPayloadLength(n);
    if (buf.size() < kFrameHeaderBytes + n)
        return std::nullopt;
    std::string payload = buf.substr(kFrameHeaderBytes, n);
    buf.erase(0, kFrameHeaderBytes + n);
    return payload;
}

bool
writeFrame(int fd, const std::string &payload)
{
    const std::string frame = encodeFrame(payload);
    std::size_t off = 0;
    while (off < frame.size()) {
        // MSG_NOSIGNAL: a vanished peer must surface as a return
        // value the coordinator can treat as a worker death, not as
        // a SIGPIPE that kills the whole campaign.
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string>
readFrame(int fd)
{
    const auto readExact = [fd](char *out, std::size_t want,
                                bool eofOk) -> bool {
        std::size_t off = 0;
        while (off < want) {
            const ssize_t n = ::read(fd, out + off, want - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw ProtocolError(
                    std::string("campaign read failed: ") +
                    std::strerror(errno));
            }
            if (n == 0) {
                if (eofOk && off == 0)
                    return false;
                throw ProtocolError(
                    "connection closed mid-frame (got " +
                    std::to_string(off) + "/" + std::to_string(want) +
                    " bytes)");
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    };

    char header[kFrameHeaderBytes];
    if (!readExact(header, kFrameHeaderBytes, /*eofOk=*/true))
        return std::nullopt;
    const std::size_t n = headerLength(header);
    checkPayloadLength(n);
    std::string payload(n, '\0');
    readExact(payload.data(), n, /*eofOk=*/false);
    return payload;
}

namespace
{

void
appendString(std::ostream &os, std::string_view key,
             const std::string &value)
{
    os << '"' << key << "\":\"" << jsonEscape(value) << '"';
}

void
appendStringOrNull(std::ostream &os, std::string_view key,
                   const std::string &value)
{
    os << '"' << key << "\":";
    if (value.empty())
        os << "null";
    else
        os << '"' << jsonEscape(value) << '"';
}

} // namespace

std::string
encode(const HelloMessage &m)
{
    std::ostringstream os;
    os << "{\"type\":\"hello\",\"protocol\":" << m.protocol << ',';
    appendString(os, "role", m.role);
    os << ',';
    appendString(os, "tool", m.tool);
    os << ',';
    appendString(os, "gitDescribe", m.gitDescribe);
    os << ',';
    appendString(os, "grid", m.grid);
    os << ",\"runs\":" << m.runs << '}';
    return os.str();
}

std::string
encode(const AssignMessage &m)
{
    std::ostringstream os;
    os << "{\"type\":\"assign\",\"runs\":[";
    bool first = true;
    for (const AssignedRun &run : m.runs) {
        os << (first ? "" : ",") << "{\"index\":" << run.index << ',';
        appendString(os, "id", run.id);
        os << ',';
        appendString(os, "fingerprint", run.fingerprint);
        os << '}';
        first = false;
    }
    os << "]}";
    return os.str();
}

std::string
encode(const OutcomeMessage &m)
{
    const SweepOutcome &o = m.outcome;
    std::ostringstream os;
    os << "{\"type\":\"outcome\",\"index\":" << m.index << ",\"run\":{";
    appendString(os, "id", o.id);
    os << ',';
    appendString(os, "fingerprint", o.fingerprint);
    os << ",\"status\":\"" << sweepStatusName(o.status)
       << "\",\"attempts\":" << o.attempts << ',';
    appendStringOrNull(os, "error", o.error);
    os << ",\"result\":";
    if (o.ok())
        writeSimulationResultJson(os, o.result);
    else
        os << "null";
    // The stats document crosses the wire as an opaque string so the
    // coordinator can splice the worker's exact bytes into the merged
    // manifest - re-serializing through a parser could legally
    // reorder or reformat.
    os << ',';
    appendStringOrNull(os, "stats", o.ok() ? o.statsJson : "");
    os << ',';
    appendStringOrNull(os, "statsText", o.ok() ? o.statsText : "");
    os << "}}";
    return os.str();
}

std::string
encode(const HeartbeatMessage &m)
{
    std::ostringstream os;
    os << "{\"type\":\"heartbeat\",\"done\":" << m.done
       << ",\"inFlight\":" << m.inFlight << '}';
    return os.str();
}

std::string
encode(const ByeMessage &m)
{
    std::ostringstream os;
    os << "{\"type\":\"bye\",";
    appendStringOrNull(os, "reason", m.reason);
    os << '}';
    return os.str();
}

std::string_view
messageTypeName(const Message &m)
{
    struct Visitor
    {
        std::string_view operator()(const HelloMessage &) const
        {
            return "hello";
        }
        std::string_view operator()(const AssignMessage &) const
        {
            return "assign";
        }
        std::string_view operator()(const OutcomeMessage &) const
        {
            return "outcome";
        }
        std::string_view operator()(const HeartbeatMessage &) const
        {
            return "heartbeat";
        }
        std::string_view operator()(const ByeMessage &) const
        {
            return "bye";
        }
    };
    return std::visit(Visitor{}, m);
}

namespace
{

const std::string &
requireString(const minijson::Value &v, const std::string &key)
{
    if (!v.has(key) || !v.at(key).isString())
        throw ProtocolError("message missing string field '" + key +
                            "'");
    return v.at(key).str();
}

std::uint64_t
requireUInt(const minijson::Value &v, const std::string &key)
{
    if (!v.has(key) || !v.at(key).isNumber())
        throw ProtocolError("message missing numeric field '" + key +
                            "'");
    const double d = v.at(key).num();
    if (d < 0)
        throw ProtocolError("field '" + key + "' is negative");
    return static_cast<std::uint64_t>(d);
}

std::string
optionalString(const minijson::Value &v, const std::string &key)
{
    if (!v.has(key) || !v.at(key).isString())
        return "";
    return v.at(key).str();
}

Message
decodeHello(const minijson::Value &v)
{
    HelloMessage m;
    m.protocol = static_cast<std::uint32_t>(requireUInt(v, "protocol"));
    m.role = requireString(v, "role");
    m.tool = requireString(v, "tool");
    m.gitDescribe = optionalString(v, "gitDescribe");
    m.grid = requireString(v, "grid");
    m.runs = requireUInt(v, "runs");
    return m;
}

Message
decodeAssign(const minijson::Value &v)
{
    if (!v.has("runs") || !v.at("runs").isArray())
        throw ProtocolError("assign message missing 'runs' array");
    AssignMessage m;
    for (const minijson::Value &r : v.at("runs").array()) {
        AssignedRun run;
        run.index = requireUInt(r, "index");
        run.id = requireString(r, "id");
        run.fingerprint = requireString(r, "fingerprint");
        m.runs.push_back(std::move(run));
    }
    return m;
}

Message
decodeOutcome(const minijson::Value &v)
{
    OutcomeMessage m;
    m.index = requireUInt(v, "index");
    if (!v.has("run") || !v.at("run").isObject())
        throw ProtocolError("outcome message missing 'run' object");
    const minijson::Value &run = v.at("run");
    SweepOutcome &o = m.outcome;
    o.id = requireString(run, "id");
    o.fingerprint = requireString(run, "fingerprint");
    try {
        o.status = sweepStatusFromName(requireString(run, "status"));
    } catch (const ProtocolError &) {
        throw;
    } catch (const std::exception &e) {
        throw ProtocolError(e.what());
    }
    o.attempts = static_cast<unsigned>(requireUInt(run, "attempts"));
    o.error = optionalString(run, "error");
    if (run.has("result") && run.at("result").isObject())
        o.result = parseSimulationResultJson(run.at("result"));
    o.statsJson = optionalString(run, "stats");
    o.statsText = optionalString(run, "statsText");
    if (!o.statsJson.empty()) {
        // Re-derive the scalar map the way a store replay does, so a
        // campaign outcome is interchangeable with a local one for
        // every consumer (bench tables, golden gates).
        try {
            o.scalars = parseScalarsFromStats(
                minijson::parse(o.statsJson));
        } catch (const std::exception &e) {
            throw ProtocolError(
                std::string("outcome stats document is not valid "
                            "JSON: ") + e.what());
        }
    }
    return m;
}

Message
decodeHeartbeat(const minijson::Value &v)
{
    HeartbeatMessage m;
    m.done = requireUInt(v, "done");
    m.inFlight = requireUInt(v, "inFlight");
    return m;
}

Message
decodeBye(const minijson::Value &v)
{
    ByeMessage m;
    m.reason = optionalString(v, "reason");
    return m;
}

} // namespace

Message
decodeMessage(const std::string &payload)
{
    minijson::Value doc;
    try {
        doc = minijson::parse(payload);
    } catch (const std::exception &e) {
        throw ProtocolError(
            std::string("frame payload is not valid JSON: ") +
            e.what());
    }
    if (!doc.isObject())
        throw ProtocolError("frame payload is not a JSON object");
    const std::string type = requireString(doc, "type");
    if (type == "hello")
        return decodeHello(doc);
    if (type == "assign")
        return decodeAssign(doc);
    if (type == "outcome")
        return decodeOutcome(doc);
    if (type == "heartbeat")
        return decodeHeartbeat(doc);
    if (type == "bye")
        return decodeBye(doc);
    throw ProtocolError("unknown message type '" + type + "'");
}

} // namespace campaign
} // namespace vsv
