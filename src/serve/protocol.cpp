#include "serve/protocol.hpp"

#include <sstream>
#include <stdexcept>

namespace xct::serve {

namespace {

double num_or(const Json& j, const std::string& key, double fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_number(key) : fallback;
}

template <class T>
T int_or(const Json& j, const std::string& key, T fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_integer<T>(key) : fallback;
}

std::string str_or(const Json& j, const std::string& key, const std::string& fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_string(key) : fallback;
}

}  // namespace

std::string encode_spec(const JobSpec& spec)
{
    const CbctGeometry& g = spec.geometry;
    std::ostringstream ss;
    ss << "{\"geometry\":{"
       << "\"dso\":" << json_number(g.dso) << ",\"dsd\":" << json_number(g.dsd)
       << ",\"num_proj\":" << g.num_proj << ",\"nu\":" << g.nu << ",\"nv\":" << g.nv
       << ",\"du\":" << json_number(g.du) << ",\"dv\":" << json_number(g.dv) << ",\"vol\":["
       << g.vol.x << "," << g.vol.y << "," << g.vol.z << "],\"dx\":" << json_number(g.dx)
       << ",\"dy\":" << json_number(g.dy) << ",\"dz\":" << json_number(g.dz)
       << ",\"sigma_u\":" << json_number(g.sigma_u) << ",\"sigma_v\":" << json_number(g.sigma_v)
       << ",\"sigma_cor\":" << json_number(g.sigma_cor)
       << ",\"scan_range\":" << json_number(g.scan_range) << "}"
       << ",\"phantom_seed\":" << spec.phantom_seed << ",\"batches\":" << spec.batches
       << ",\"device_capacity\":" << spec.device_capacity
       << ",\"priority\":" << json_quote(to_string(spec.priority))
       << ",\"tenant\":" << json_quote(spec.tenant)
       << ",\"deadline_s\":" << json_number(spec.deadline_s)
       << ",\"output\":" << json_quote(spec.output) << "}";
    return ss.str();
}

JobSpec decode_spec(const Json& j)
{
    JobSpec spec;
    const Json& g = j.at("geometry");
    spec.geometry.dso = g.at("dso").as_number("dso");
    spec.geometry.dsd = g.at("dsd").as_number("dsd");
    spec.geometry.num_proj = g.at("num_proj").as_integer<index_t>("num_proj");
    spec.geometry.nu = g.at("nu").as_integer<index_t>("nu");
    spec.geometry.nv = g.at("nv").as_integer<index_t>("nv");
    spec.geometry.du = num_or(g, "du", 1.0);
    spec.geometry.dv = num_or(g, "dv", 1.0);
    const Json& vol = g.at("vol");
    if (vol.type != Json::Type::Array || vol.array.size() != 3)
        throw std::invalid_argument("json: vol must be [nx, ny, nz]");
    spec.geometry.vol = Dim3{vol.array[0].as_integer<index_t>("vol"),
                             vol.array[1].as_integer<index_t>("vol"),
                             vol.array[2].as_integer<index_t>("vol")};
    spec.geometry.dx = num_or(g, "dx", 1.0);
    spec.geometry.dy = num_or(g, "dy", 1.0);
    spec.geometry.dz = num_or(g, "dz", 1.0);
    // Journals written before the offsets were carried replay as zeros.
    spec.geometry.sigma_u = num_or(g, "sigma_u", 0.0);
    spec.geometry.sigma_v = num_or(g, "sigma_v", 0.0);
    spec.geometry.sigma_cor = num_or(g, "sigma_cor", 0.0);
    spec.geometry.scan_range = num_or(g, "scan_range", spec.geometry.scan_range);
    spec.phantom_seed = int_or<std::uint64_t>(j, "phantom_seed", 0);
    spec.batches = int_or<index_t>(j, "batches", 8);
    spec.device_capacity = int_or<std::size_t>(j, "device_capacity", 64u << 20);
    spec.priority = priority_from(str_or(j, "priority", "normal"));
    spec.tenant = str_or(j, "tenant", "default");
    spec.deadline_s = num_or(j, "deadline_s", 0.0);
    spec.output = str_or(j, "output", "");
    return spec;
}

std::string encode_status(const JobStatus& st)
{
    std::ostringstream ss;
    ss << "{\"id\":" << st.id << ",\"state\":" << json_quote(to_string(st.state))
       << ",\"tenant\":" << json_quote(st.tenant)
       << ",\"priority\":" << json_quote(to_string(st.priority))
       << ",\"reason\":" << json_quote(st.reason)
       << ",\"progress\":" << json_number(st.progress)
       << ",\"total_slabs\":" << st.total_slabs
       << ",\"completed_slabs\":" << st.completed_slabs
       << ",\"predicted_s\":" << json_number(st.predicted_s)
       << ",\"device_bytes\":" << st.device_bytes
       << ",\"output\":" << json_quote(st.output) << "}";
    return ss.str();
}

JobStatus decode_status(const Json& j)
{
    JobStatus st;
    st.id = j.at("id").as_integer<JobId>("id");
    const std::string& state = j.at("state").as_string("state");
    const JobState states[] = {JobState::Queued,   JobState::Running, JobState::Done,
                               JobState::Cancelled, JobState::Rejected, JobState::Shed,
                               JobState::Failed};
    bool found = false;
    for (const JobState s : states)
        if (state == to_string(s)) {
            st.state = s;
            found = true;
        }
    if (!found) throw std::invalid_argument("json: unknown state \"" + state + "\"");
    st.tenant = str_or(j, "tenant", "");
    st.priority = priority_from(str_or(j, "priority", "normal"));
    st.reason = str_or(j, "reason", "");
    st.progress = num_or(j, "progress", 0.0);
    st.total_slabs = int_or<index_t>(j, "total_slabs", 0);
    st.completed_slabs = int_or<index_t>(j, "completed_slabs", 0);
    st.predicted_s = num_or(j, "predicted_s", 0.0);
    st.device_bytes = int_or<std::uint64_t>(j, "device_bytes", 0);
    st.output = str_or(j, "output", "");
    return st;
}

std::string encode_request(const Request& r)
{
    std::ostringstream ss;
    ss << "{\"op\":" << json_quote(r.op);
    if (r.op == "submit") ss << ",\"spec\":" << encode_spec(r.spec);
    if (r.op == "status" || r.op == "cancel" || r.op == "wait" || r.op == "fetch_slice")
        ss << ",\"id\":" << r.id;
    if (r.op == "fetch_slice") ss << ",\"slice\":" << r.slice;
    if (r.op == "wait") ss << ",\"timeout_s\":" << json_number(r.timeout_s);
    ss << "}";
    return ss.str();
}

Request decode_request(const std::string& line)
{
    const Json j = Json::parse(line);
    Request r;
    r.op = j.at("op").as_string("op");
    if (r.op == "submit") r.spec = decode_spec(j.at("spec"));
    if (r.op == "status" || r.op == "cancel" || r.op == "wait" || r.op == "fetch_slice")
        r.id = j.at("id").as_integer<JobId>("id");
    if (r.op == "fetch_slice") r.slice = j.at("slice").as_integer<index_t>("slice");
    if (r.op == "wait") r.timeout_s = num_or(j, "timeout_s", 60.0);
    return r;
}

std::string encode_error(const std::string& message)
{
    return "{\"ok\":false,\"error\":" + json_quote(message) + "}";
}

const char* to_string(Priority p)
{
    switch (p) {
        case Priority::Low: return "low";
        case Priority::Normal: return "normal";
        case Priority::High: return "high";
    }
    return "unknown";
}

Priority priority_from(const std::string& s)
{
    if (s == "low") return Priority::Low;
    if (s == "normal") return Priority::Normal;
    if (s == "high") return Priority::High;
    throw std::invalid_argument("priority must be low|normal|high, got \"" + s + "\"");
}

const char* to_string(JobState s)
{
    switch (s) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Done: return "done";
        case JobState::Cancelled: return "cancelled";
        case JobState::Rejected: return "rejected";
        case JobState::Shed: return "shed";
        case JobState::Failed: return "failed";
    }
    return "unknown";
}

bool is_terminal(JobState s)
{
    return s != JobState::Queued && s != JobState::Running;
}

}  // namespace xct::serve
