#include "service/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <list>
#include <thread>

#include "common/logging.hh"

namespace bpsim::service {

// ---------------------------------------------------------------------
// BatchQueue

Result<SweepResponse>
BatchQueue::submit(const SweepRequest &request)
{
    auto slot = std::make_shared<Slot>();
    slot->request = request;

    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.submissions;
    pending_.push_back(slot);

    while (!slot->out) {
        if (!draining_) {
            // Become the drainer of everything pending (leader-based
            // combining): under no contention this is a batch of one;
            // under load it is the coalescing window.
            draining_ = true;
            std::vector<std::shared_ptr<Slot>> batch;
            batch.swap(pending_);
            ++stats_.drains;
            if (batch.size() > 1)
                ++stats_.multiRequestDrains;
            lock.unlock();

            std::vector<SweepRequest> requests;
            requests.reserve(batch.size());
            for (const auto &member : batch)
                requests.push_back(member->request);

            std::vector<Result<SweepResponse>> results;
            BatchCounters counters;
            try {
                results = session_.sweepBatch(requests, &counters);
            } catch (const std::exception &e) {
                results.clear();
                for (std::size_t i = 0; i < batch.size(); ++i)
                    results.push_back(BPSIM_ERROR(
                        "sweep batch threw: ", e.what()));
            } catch (...) {
                results.clear();
                for (std::size_t i = 0; i < batch.size(); ++i)
                    results.push_back(BPSIM_ERROR(
                        "sweep batch threw a non-exception"));
            }

            lock.lock();
            stats_.batch.merge(counters);
            for (std::size_t i = 0; i < batch.size(); ++i)
                batch[i]->out = std::move(results[i]);
            draining_ = false;
            cv_.notify_all();
        } else {
            cv_.wait(lock);
        }
    }
    return std::move(*slot->out);
}

BatchQueue::Stats
BatchQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---------------------------------------------------------------------
// SweepServer

SweepServer::SweepServer(ServerOptions opts, SchemeRegistry schemes,
                         WorkloadRegistry workloads)
    : opts_(std::move(opts)), schemes_(std::move(schemes)),
      workloads_(std::move(workloads)),
      session_(opts_.cacheDir, opts_.cacheBudgetBytes),
      queue_(session_)
{
}

SweepServer::SweepServer(ServerOptions opts)
    : SweepServer(std::move(opts), SchemeRegistry::withBuiltins(),
                  WorkloadRegistry::withBuiltins())
{
}

void
SweepServer::countError()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++errors_;
}

std::string
SweepServer::handleLine(std::string_view line)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++requests_;
    }

    if (line.size() > opts_.limits.maxLineBytes) {
        countError();
        return errorResponse(
                   "", errcode::kOversizedLine,
                   "request line exceeds " +
                       std::to_string(opts_.limits.maxLineBytes) +
                       " bytes")
            .render();
    }

    Result<JsonValue> parsed = parseJson(line);
    if (!parsed.ok()) {
        countError();
        return errorResponse("", errcode::kBadJson,
                             parsed.error().message())
            .render();
    }

    // Echo the id in error responses whenever one parsed, even when
    // the rest of the request is malformed.
    std::string id;
    if (const JsonValue *idv = parsed.value().find("id"))
        if (idv->isString())
            id = idv->asString();

    Result<Request> request =
        parseRequest(parsed.value(), opts_.limits);
    if (!request.ok()) {
        countError();
        return errorResponse(id, errcode::kBadRequest,
                             request.error().message())
            .render();
    }

    try {
        JsonValue response = dispatch(request.value());
        if (const JsonValue *ok = response.find("ok"))
            if (ok->isBool() && !ok->asBool())
                countError();
        return response.render();
    } catch (const std::exception &e) {
        countError();
        return errorResponse(id, errcode::kInternal,
                             std::string("request dispatch threw: ") +
                                 e.what())
            .render();
    } catch (...) {
        countError();
        return errorResponse(id, errcode::kInternal,
                             "request dispatch threw a non-exception")
            .render();
    }
}

JsonValue
SweepServer::dispatch(const Request &req)
{
    switch (req.op) {
      case RequestOp::Ping:
        return okResponse(req.id, req.op);
      case RequestOp::Intern:
        return handleIntern(req);
      case RequestOp::Sweep:
        return handleSweep(req);
      case RequestOp::Point:
        return handlePoint(req);
      case RequestOp::Stats:
        return handleStats(req);
      case RequestOp::Catalog:
        return handleCatalog(req);
      case RequestOp::Shutdown: {
        shutdown_.store(true, std::memory_order_release);
        interruptTransports();
        return okResponse(req.id, req.op);
      }
    }
    return errorResponse(req.id, errcode::kInternal,
                         "unhandled op");
}

Result<TraceHash>
SweepServer::resolveTraceKey(const TraceRef &ref)
{
    if (ref.byProfile()) {
        Result<TraceHandle> handle =
            workloads_.intern(ref.profile, session_, ref.branches);
        if (!handle.ok())
            return handle.error();
        return handle.value().hash;
    }
    if (ref.byFile()) {
        Result<TraceHandle> handle = session_.internFile(ref.file);
        if (!handle.ok())
            return handle.error();
        return handle.value().hash;
    }
    // Hash form: pass through unresolved.  A sweep against a warm
    // result cache needs no trace bytes at all; when it does miss,
    // the session reports the not-interned error.
    return ref.hash;
}

JsonValue
SweepServer::handleIntern(const Request &req)
{
    TraceHash hash;
    std::uint64_t records = 0;
    if (req.trace.byHash()) {
        TraceHandle handle = session_.registry().lookup(req.trace.hash);
        if (!handle.valid())
            return errorResponse(req.id, errcode::kFailed,
                                 "trace " + req.trace.hash.hex() +
                                     " is not interned");
        hash = handle.hash;
        records = handle.trace->size();
    } else {
        Result<TraceHash> key = resolveTraceKey(req.trace);
        if (!key.ok()) {
            const char *code = req.trace.byProfile()
                                   ? errcode::kUnknownProfile
                                   : errcode::kFailed;
            return errorResponse(req.id, code, key.error().message());
        }
        hash = key.value();
        TraceHandle handle = session_.registry().lookup(hash);
        if (handle.valid())
            records = handle.trace->size();
    }
    JsonValue response = okResponse(req.id, req.op);
    response.object().emplace("trace", JsonValue(hash.hex()));
    response.object().emplace(
        "records", JsonValue(static_cast<std::int64_t>(records)));
    return response;
}

JsonValue
SweepServer::handleSweep(const Request &req)
{
    Result<SchemeKind> kind = schemes_.resolve(req.scheme);
    if (!kind.ok())
        return errorResponse(req.id, errcode::kUnknownScheme,
                             kind.error().message());
    Result<TraceHash> trace = resolveTraceKey(req.trace);
    if (!trace.ok()) {
        const char *code = req.trace.byProfile()
                               ? errcode::kUnknownProfile
                               : errcode::kFailed;
        return errorResponse(req.id, code, trace.error().message());
    }

    SweepRequest sweep;
    sweep.trace = trace.value();
    sweep.kind = kind.value();
    sweep.options = req.options;
    sweep.options.threads = opts_.threads;
    sweep.bypassCache = req.bypassCache;

    Result<SweepResponse> response = submitSweep(sweep);
    if (!response.ok())
        return errorResponse(req.id, errcode::kFailed,
                             response.error().message());

    JsonValue out = okResponse(req.id, req.op);
    out.object().emplace("trace", JsonValue(sweep.trace.hex()));
    out.object().emplace("scheme",
                         JsonValue(schemeKindName(sweep.kind)));
    JsonValue payload = sweepResponseJson(response.value());
    for (auto &[key, value] : payload.object())
        out.object().emplace(key, std::move(value));
    return out;
}

JsonValue
SweepServer::handlePoint(const Request &req)
{
    Result<SchemeKind> kind = schemes_.resolve(req.scheme);
    if (!kind.ok())
        return errorResponse(req.id, errcode::kUnknownScheme,
                             kind.error().message());
    Result<TraceHash> trace = resolveTraceKey(req.trace);
    if (!trace.ok()) {
        const char *code = req.trace.byProfile()
                               ? errcode::kUnknownProfile
                               : errcode::kFailed;
        return errorResponse(req.id, code, trace.error().message());
    }

    Result<ConfigResult> point =
        session_.point(trace.value(), kind.value(), req.rowBits,
                       req.colBits, req.options);
    if (!point.ok())
        return errorResponse(req.id, errcode::kFailed,
                             point.error().message());

    JsonValue out = okResponse(req.id, req.op);
    out.object().emplace("trace", JsonValue(trace.value().hex()));
    out.object().emplace("scheme",
                         JsonValue(schemeKindName(kind.value())));
    out.object().emplace("misp_rate",
                         JsonValue(point.value().mispRate));
    out.object().emplace("alias_rate",
                         JsonValue(point.value().aliasRate));
    out.object().emplace("harmless_fraction",
                         JsonValue(point.value().harmlessFraction));
    out.object().emplace("bht_miss_rate",
                         JsonValue(point.value().bhtMissRate));
    return out;
}

JsonValue
SweepServer::handleStats(const Request &req)
{
    const ServerStats server = stats();
    const ResultCache::Stats cache = session_.cache().stats();

    JsonValue::Object queue;
    queue.emplace("submissions",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.submissions)));
    queue.emplace("drains", JsonValue(static_cast<std::int64_t>(
                                server.queue.drains)));
    queue.emplace("multi_request_drains",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.multiRequestDrains)));
    queue.emplace("cache_hits",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.batch.cacheHits)));
    queue.emplace("envelope_sweeps",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.batch.envelopeSweeps)));
    queue.emplace("fused_groups_formed",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.batch.fusedGroupsFormed)));
    queue.emplace("coalesced_requests",
                  JsonValue(static_cast<std::int64_t>(
                      server.queue.batch.coalescedRequests)));

    JsonValue::Object cacheObj;
    cacheObj.emplace("memory_hits", JsonValue(static_cast<std::int64_t>(
                                        cache.memoryHits)));
    cacheObj.emplace("disk_hits", JsonValue(static_cast<std::int64_t>(
                                      cache.diskHits)));
    cacheObj.emplace("misses", JsonValue(static_cast<std::int64_t>(
                                   cache.misses)));
    cacheObj.emplace("corrupt", JsonValue(static_cast<std::int64_t>(
                                    cache.corrupt)));
    cacheObj.emplace("store_failures",
                     JsonValue(static_cast<std::int64_t>(
                         cache.storeFailures)));
    cacheObj.emplace("disk_evictions",
                     JsonValue(static_cast<std::int64_t>(
                         cache.diskEvictions)));
    cacheObj.emplace("resident_entries",
                     JsonValue(static_cast<std::int64_t>(
                         session_.cache().residentEntries())));

    JsonValue out = okResponse(req.id, req.op);
    out.object().emplace("requests",
                         JsonValue(static_cast<std::int64_t>(
                             server.requests)));
    out.object().emplace(
        "errors",
        JsonValue(static_cast<std::int64_t>(server.errors)));
    out.object().emplace("queue", JsonValue(std::move(queue)));
    // Cumulative kernel telemetry over every envelope replay the
    // daemon has executed (cache hits contribute nothing).
    out.object().emplace("kernel",
                         telemetryJson(server.queue.batch.kernel));
    out.object().emplace("cache", JsonValue(std::move(cacheObj)));
    out.object().emplace("traces_interned",
                         JsonValue(static_cast<std::int64_t>(
                             session_.registry().size())));
    return out;
}

JsonValue
SweepServer::handleCatalog(const Request &req)
{
    JsonValue::Array schemes;
    for (const std::string &name : schemes_.names())
        schemes.emplace_back(name);
    JsonValue::Array workloads;
    for (const std::string &name : workloads_.names())
        workloads.emplace_back(name);

    JsonValue out = okResponse(req.id, req.op);
    out.object().emplace("schemes", JsonValue(std::move(schemes)));
    out.object().emplace("workloads", JsonValue(std::move(workloads)));
    return out;
}

Result<SweepResponse>
SweepServer::submitSweep(const SweepRequest &request)
{
    return queue_.submit(request);
}

ServerStats
SweepServer::stats() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out.requests = requests_;
        out.errors = errors_;
    }
    out.queue = queue_.stats();
    return out;
}

// ---------------------------------------------------------------------
// Transports

Status
SweepServer::servePipe(std::FILE *in, std::FILE *out)
{
    std::string line;
    while (!shutdownRequested()) {
        line.clear();
        bool oversized = false;
        int c;
        while ((c = std::fgetc(in)) != EOF && c != '\n') {
            if (line.size() > opts_.limits.maxLineBytes)
                oversized = true; // keep consuming to the newline
            else
                line.push_back(static_cast<char>(c));
        }
        if (c == EOF && line.empty() && !oversized)
            break;

        // Ignore keepalive/blank lines.
        if (!oversized &&
            line.find_first_not_of(" \t\r") == std::string::npos) {
            if (c == EOF)
                break;
            continue;
        }

        std::string response =
            oversized
                ? handleLine(std::string(opts_.limits.maxLineBytes + 1,
                                         ' '))
                : handleLine(line);
        response += '\n';
        if (std::fwrite(response.data(), 1, response.size(), out) !=
                response.size() ||
            std::fflush(out) != 0) {
            return BPSIM_ERROR("short write on response pipe");
        }
        if (c == EOF)
            break;
    }
    return Status();
}

Status
SweepServer::serveSocket(const std::string &path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        return BPSIM_ERROR("socket path too long: ", path);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return BPSIM_ERROR("socket() failed: ", std::strerror(errno));

    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        return BPSIM_ERROR("bind(", path,
                           ") failed: ", std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(path.c_str());
        return BPSIM_ERROR("listen(", path,
                           ") failed: ", std::strerror(err));
    }
    listenFd_.store(fd, std::memory_order_release);

    // Workers flag themselves done and are joined as new clients
    // arrive, so a long-lived daemon holds a thread (and its stack)
    // per open connection, not per connection ever served.  A list
    // keeps each flag's address stable.
    std::list<std::pair<std::thread, std::atomic<bool>>> workers;
    Status status;
    while (!shutdownRequested()) {
        int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            if (shutdownRequested())
                break;
            // The listener failed (EMFILE, ENFILE, ENOMEM, ...): stop
            // accepting, wake the open connections so their workers
            // can be joined, and report the failure to the caller.
            const int err = errno;
            status = BPSIM_ERROR("accept() on ", path,
                                 " failed: ", std::strerror(err));
            bpsim_warn("sweep server: ", status.error().message());
            interruptTransports();
            break;
        }
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            connFds_.push_back(conn);
        }
        workers.remove_if([](auto &w) {
            if (w.second.load(std::memory_order_acquire))
                w.first.join();
            return !w.first.joinable();
        });
        auto &[thread, done] = workers.emplace_back();
        thread = std::thread([this, conn, &done] {
            serveConnection(conn);
            done.store(true, std::memory_order_release);
        });
    }

    listenFd_.store(-1, std::memory_order_release);
    ::close(fd);
    ::unlink(path.c_str());
    for (auto &[thread, done] : workers)
        thread.join();
    return status;
}

void
SweepServer::serveConnection(int fd)
{
    // Duplicate the descriptor so read and write sides get
    // independent stdio buffers; servePipe then serves this
    // connection exactly like a stdin/stdout client.
    int wfd = ::dup(fd);
    std::FILE *in = ::fdopen(fd, "r");
    std::FILE *out = wfd >= 0 ? ::fdopen(wfd, "w") : nullptr;
    if (in && out)
        static_cast<void>(servePipe(in, out));

    // Forget the descriptor BEFORE closing it: once closed, a
    // concurrently accepted connection may reuse the number, and its
    // entry must be neither erased here nor shut down by
    // interruptTransports on this connection's behalf.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.erase(
            std::remove(connFds_.begin(), connFds_.end(), fd),
            connFds_.end());
    }
    if (in)
        std::fclose(in);
    else
        ::close(fd);
    if (out)
        std::fclose(out);
    else if (wfd >= 0)
        ::close(wfd);
}

void
SweepServer::interruptTransports()
{
    // Wake the accept loop and every connection blocked in a read so
    // serveSocket can join its workers.  shutdown(2) (not close) is
    // used: the descriptors stay valid for their owners to close.
    // Connections get SHUT_RD only -- the connection that carried the
    // shutdown request still has its response in flight.
    const int listener = listenFd_.load(std::memory_order_acquire);
    if (listener >= 0)
        ::shutdown(listener, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(connMutex_);
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RD);
}

} // namespace bpsim::service
