#include "service/service.hh"

#include <sstream>

#include "sim/logging.hh"

namespace tta::service {

TraversalService::TraversalService(const sim::Config &cfg,
                                   sim::StatRegistry &stats,
                                   const ServicePolicy &policy)
    : cfg_(cfg), stats_(stats), policy_(policy)
{
    fatal_if(policy_.maxBatch == 0, "ServicePolicy.maxBatch == 0");
    fatal_if(policy_.maxWaitCycles == 0,
             "ServicePolicy.maxWaitCycles == 0");
    fatal_if(policy_.numDevices == 0, "ServicePolicy.numDevices == 0");
    group_ = std::make_unique<DeviceGroup>(cfg_, policy_.numDevices,
                                           policy_.pipelinedStaging);
    inflight_.resize(policy_.numDevices);
    deviceLaunches_.resize(policy_.numDevices, 0);
}

sim::Cycle
TraversalService::classMaxWait(SloClass cls) const
{
    if (cls == SloClass::LatencySensitive && policy_.lsMaxWaitCycles)
        return policy_.lsMaxWaitCycles;
    return policy_.maxWaitCycles;
}

uint32_t
TraversalService::addTenant(std::unique_ptr<Tenant> tenant,
                            SloClass slo)
{
    fatal_if(ran_ || nextSeq_ != 0, "addTenant after traffic was served");
    // Same tenant order on every device, so the per-device allocation
    // sequences (and thus every serialized address) match exactly.
    for (uint32_t d = 0; d < group_->size(); ++d)
        tenant->install(group_->device(d), policy_.maxBatch);
    uint32_t id = queue_.addLane(slo);
    fatal_if(id != tenants_.size(), "tenant/lane id skew");
    tenants_.push_back(std::move(tenant));
    tenantSubmitted_.push_back(0);
    return id;
}

void
TraversalService::admitUpTo(TrafficSource &src, sim::Cycle now,
                            ServiceReport &report)
{
    while (src.peek() != kNoCycle && src.peek() <= now) {
        Arrival a = src.pop();
        fatal_if(a.tenant >= tenants_.size(),
                 "arrival for unknown tenant %u", a.tenant);
        QueryTicket t;
        t.seq = nextSeq_++;
        t.tenant = a.tenant;
        t.client = a.client;
        t.payload = static_cast<uint32_t>(
            tenantSubmitted_[a.tenant]++ %
            tenants_[a.tenant]->poolSize());
        t.arrival = a.cycle;
        t.deadline = a.cycle + classMaxWait(queue_.laneClass(a.tenant));
        queue_.enqueue(t);
        ++report.submitted;
        ++report.tenants[a.tenant].submitted;
        if (a.cancelAfter)
            cancels_.push({a.cycle + a.cancelAfter, t.seq, t.tenant});
    }
    while (!cancels_.empty() && cancels_.top().cycle <= now) {
        CancelEvent e = cancels_.top();
        cancels_.pop();
        if (queue_.cancel(e.tenant, e.seq)) {
            ++report.canceled;
            ++report.tenants[e.tenant].canceled;
        }
    }
}

void
TraversalService::launchReady(uint32_t d, ServiceReport &report)
{
    Scheduler::Batch b = scheduler_->takeReady(d);
    uint32_t t = b.tenant;
    Tenant &tenant = *tenants_[t];
    std::shared_ptr<std::vector<QueryTicket>> batch = b.queries;

    // Staging parity alternates per device launch, so batch k+1 stages
    // into the buffers batch k-1 vacated while batch k is in flight.
    // The alternation runs in serial mode too: identical buffer use,
    // identical outputs.
    uint32_t parity =
        static_cast<uint32_t>(deviceLaunches_[d] % kStagingParities);
    ++deviceLaunches_[d];
    group_->reserveParity(d, parity);

    ServiceDevice &dev = group_->device(d);
    tenant.writeBatch(dev, parity, *batch);

    DeviceGroup::Launch launch;
    launch.slot = tenant.slot(d, parity);
    launch.queries = batch->size();
    launch.parity = parity;
    Tenant *tp = &tenant;
    ServiceDevice *dp = &dev;
    launch.verify = [tp, dp, parity, batch] {
        size_t bad = tp->verifyBatch(*dp, parity, *batch);
        fatal_if(bad > tp->verifyTolerance(batch->size()),
                 "tenant '%s' device %u: %zu result mismatches in a "
                 "%zu-query batch",
                 tp->name().c_str(), dp->index(), bad, batch->size());
        return bad;
    };
    std::atomic<uint64_t> *tally = &verifyMismatches_[t];
    launch.onVerified = [tally](size_t bad) {
        tally->fetch_add(bad, std::memory_order_relaxed);
    };
    group_->submit(d, std::move(launch));
    scheduler_->onLaunch(d, b, now_);

    Inflight &f = inflight_[d];
    f.active = true;
    f.tenant = t;
    f.parity = parity;
    // Expiry is judged at launch, not placement: under affinity a
    // planned batch can sit in a device backlog and cross its front
    // deadline before launching, and expiredDispatches must count it
    // (under lld placement and launch share one now_, so this is the
    // pre-scheduler semantics exactly).
    f.expired = b.expired || b.queries->front().deadline <= now_;
    f.start = now_;
    f.complete = kNoCycle;
    f.batch = std::move(batch);
    if (f.expired)
        ++report.expiredDispatches;
}

void
TraversalService::runCalibrationProbe()
{
    uint32_t n = scheduler_->probeQueries();
    if (n == 0)
        return;
    // One probe batch per (tenant, device), synthetic payloads cycling
    // the tenant's pool. Launched outside the traffic loop: no queue,
    // report or sequence-number interaction — only the device clocks
    // (and caches) advance, uniformly across the group, and the cost
    // model is seeded from device 0's measurement.
    for (uint32_t t = 0; t < tenants_.size(); ++t) {
        Tenant &tenant = *tenants_[t];
        std::vector<QueryTicket> batch(n);
        for (uint32_t i = 0; i < n; ++i) {
            batch[i].seq = i;
            batch[i].tenant = t;
            batch[i].payload = static_cast<uint32_t>(
                i % tenant.poolSize());
        }
        sim::Cycle seed_elapsed = 0;
        for (uint32_t d = 0; d < group_->size(); ++d) {
            uint32_t parity = static_cast<uint32_t>(
                deviceLaunches_[d] % kStagingParities);
            ++deviceLaunches_[d];
            group_->reserveParity(d, parity);
            tenant.writeBatch(group_->device(d), parity, batch);
            DeviceGroup::Launch launch;
            launch.slot = tenant.slot(d, parity);
            launch.queries = n;
            launch.parity = parity;
            group_->submit(d, std::move(launch));
            sim::Cycle elapsed = group_->collectElapsed(d);
            if (d == 0)
                seed_elapsed = elapsed;
        }
        scheduler_->calibrate(t, n, seed_elapsed);
    }
}

void
TraversalService::ensureElapsed(uint32_t d, ServiceReport &report)
{
    Inflight &f = inflight_[d];
    if (!f.active || f.complete != kNoCycle)
        return;
    sim::Cycle elapsed = group_->collectElapsed(d);
    f.complete = f.start + elapsed;
    report.deviceBusy += elapsed;
    report.devices[d].busy += elapsed;
}

void
TraversalService::retireDue(sim::Cycle now, TrafficSource &src,
                            ServiceReport &report)
{
    for (uint32_t d = 0; d < inflight_.size(); ++d)
        if (inflight_[d].active && inflight_[d].start < now)
            ensureElapsed(d, report);

    // Retire in (completion cycle, device index) order: the recording
    // order of latencies, logs and closed-loop feedback is then a pure
    // function of the virtual clock.
    for (;;) {
        int best = -1;
        for (uint32_t d = 0; d < inflight_.size(); ++d) {
            const Inflight &f = inflight_[d];
            if (!f.active || f.complete == kNoCycle ||
                f.complete > now)
                continue;
            if (best < 0 ||
                f.complete < inflight_[best].complete)
                best = static_cast<int>(d);
        }
        if (best < 0)
            return;
        uint32_t d = static_cast<uint32_t>(best);
        Inflight &f = inflight_[d];
        const std::vector<QueryTicket> &batch = *f.batch;

        TenantReport &tr = report.tenants[f.tenant];
        DeviceReport &dr = report.devices[d];
        ClassReport &cr = report.classes[static_cast<uint32_t>(
            queue_.laneClass(f.tenant))];
        for (const QueryTicket &q : batch) {
            sim::Cycle lat = f.complete - q.arrival;
            sim::Cycle wait = f.start - q.arrival;
            tr.latency.record(lat);
            tr.queueWait.record(wait);
            report.latency.record(lat);
            dr.latency.record(lat);
            cr.latency.record(lat);
            cr.queueWait.record(wait);
            src.onCompletion(q, f.complete);
        }
        tr.completed += batch.size();
        report.completed += batch.size();
        dr.completed += batch.size();
        cr.completed += batch.size();
        ++tr.batches;
        ++report.batches;
        ++dr.batches;
        if (f.complete > dr.lastDone)
            dr.lastDone = f.complete;
        if (f.complete > report.makespan)
            report.makespan = f.complete;

        if (report.batches <= kMaxLoggedBatches) {
            std::ostringstream os;
            os << "b" << report.batches << " t=" << f.tenant
               << " start=" << f.start << " done=" << f.complete
               << " n=" << batch.size() << " seq=" << batch.front().seq
               << ".." << batch.back().seq << " dev=" << d << "\n";
            report.batchLog += os.str();
        }
        if (dr.batches <= kMaxLoggedBatches) {
            std::ostringstream os;
            os << "b" << dr.batches << " t=" << f.tenant
               << " start=" << f.start << " done=" << f.complete
               << " n=" << batch.size() << " seq=" << batch.front().seq
               << ".." << batch.back().seq << "\n";
            dr.batchLog += os.str();
        }

        scheduler_->onRetire(d, f.tenant, batch.size(), f.complete,
                             f.complete - f.start);
        f.active = false;
        f.batch.reset();
    }
}

ServiceReport
TraversalService::run(TrafficSource &src)
{
    fatal_if(ran_, "TraversalService::run called twice");
    ran_ = true;
    fatal_if(tenants_.empty(), "TraversalService::run with no tenants");
    ServiceReport report;
    report.tenants.resize(tenants_.size());
    report.devices.resize(group_->size());
    for (uint32_t t = 0; t < tenants_.size(); ++t) {
        report.tenants[t].name = tenants_[t]->name();
        report.tenants[t].slo = queue_.laneClass(t);
    }
    verifyMismatches_ = std::make_unique<std::atomic<uint64_t>[]>(
        tenants_.size());
    for (uint32_t t = 0; t < tenants_.size(); ++t)
        verifyMismatches_[t].store(0, std::memory_order_relaxed);

    scheduler_ = std::make_unique<Scheduler>(
        policy_.sched, group_->size(),
        static_cast<uint32_t>(tenants_.size()), policy_.maxBatch);
    runCalibrationProbe();

    while (true) {
        retireDue(now_, src, report);
        admitUpTo(src, now_, report);

        // Plan: pull dispatchable batches from the admission queue and
        // place them onto devices per the scheduling policy, while the
        // scheduler has room. Under lld, "room" means an idle device
        // with no plan and placement is longest-idle-first, so the
        // pairing (and the launches below, all at the same now_) match
        // the pre-scheduler dispatcher exactly.
        scheduler_->refreshQuotas();
        while (scheduler_->hasRoom()) {
            int t;
            if (scheduler_->affinity()) {
                // Orient tenant selection around the device the batch
                // will land on: among dispatchable full lanes, the one
                // whose tree is warmest there wins (queue.hh documents
                // why this keeps the SLO rules intact).
                uint32_t d = scheduler_->nextPlacementDevice(now_);
                t = queue_.selectTenant(now_, scheduler_->quotas(),
                                        src.exhausted(),
                                        scheduler_->warmthKeys(d, now_),
                                        scheduler_->deadlineSlack());
            } else {
                t = queue_.selectTenant(now_, policy_.maxBatch,
                                        src.exhausted());
            }
            if (t < 0)
                break;
            bool priority = queue_.laneClass(static_cast<uint32_t>(t)) ==
                            SloClass::LatencySensitive;
            // A partial throughput lane coalesces better the longer
            // it waits, so while every device is busy it keeps
            // accumulating: the quota makes a sub-maxBatch lane
            // *eligible* (selectable), but planning it into a busy
            // device's backlog trades a full batch's amortization for
            // a partial's with nothing gained. The moment a device
            // would otherwise sit idle (hasIdleDevice), the partial
            // pops — that is the quota's early dispatch, and it is
            // also lld's timing for expired/drain pops. Deferring
            // never idles capacity: the defer only fires with no idle
            // device, and the pass re-runs before the next launch.
            // Priority batches are exempt: they jump the backlog at
            // placement anyway.
            if (scheduler_->affinity() && !priority &&
                queue_.pending(static_cast<uint32_t>(t)) <
                    policy_.maxBatch &&
                queue_.frontDeadline(static_cast<uint32_t>(t)) > now_ &&
                !src.exhausted() && !scheduler_->hasIdleDevice())
                break;
            // Quotas gate *when* a lane dispatches (rule 2 threshold);
            // the pop itself always takes up to maxBatch, so a backed-
            // up lane still launches full-size batches.
            auto batch = std::make_shared<std::vector<QueryTicket>>(
                queue_.popBatch(static_cast<uint32_t>(t),
                                policy_.maxBatch));
            fatal_if(batch->empty(), "dispatch of an empty batch");
            bool expired = batch->front().deadline <= now_;
            scheduler_->place(static_cast<uint32_t>(t),
                              std::move(batch), expired, priority, now_);
        }

        // Launch the front of every idle device's plan. After this,
        // every device with planned work is busy, so the loop can
        // never wedge with planned batches outstanding.
        for (uint32_t d = 0; d < inflight_.size(); ++d)
            if (!inflight_[d].active && scheduler_->hasReady(d))
                launchReady(d, report);

        // Next event: arrival, cancel, deadline (only useful when the
        // scheduler could act on it), or the earliest in-flight
        // completion (collected lazily here — this is where the
        // service blocks on device workers, one at a time, while the
        // others keep simulating).
        sim::Cycle next = src.peek();
        bool anyInflight = false;
        for (const Inflight &f : inflight_)
            if (f.active)
                anyInflight = true;
        if (scheduler_->hasRoom() && queue_.pendingTotal() > 0) {
            sim::Cycle dl = queue_.earliestDeadline();
            if (dl < next)
                next = dl;
        }
        if (!cancels_.empty() && cancels_.top().cycle < next)
            next = cancels_.top().cycle;
        if (anyInflight) {
            for (uint32_t d = 0; d < inflight_.size(); ++d) {
                if (!inflight_[d].active)
                    continue;
                ensureElapsed(d, report);
                if (inflight_[d].complete < next)
                    next = inflight_[d].complete;
            }
        }
        if (next == kNoCycle) {
            fatal_if(queue_.pendingTotal() > 0,
                     "service wedged with %llu queued queries",
                     (unsigned long long)queue_.pendingTotal());
            fatal_if(scheduler_->plannedBatches() > 0,
                     "service wedged with %llu planned batches",
                     (unsigned long long)scheduler_->plannedBatches());
            fatal_if(!src.exhausted(),
                     "traffic source idle but not exhausted with an "
                     "empty queue");
            break;
        }
        now_ = next > now_ ? next : now_ + 1;
    }

    // Finish outstanding verifies (and surface any worker error).
    group_->drain();
    for (uint32_t t = 0; t < tenants_.size(); ++t)
        report.tenants[t].verifySoftMismatches =
            verifyMismatches_[t].load(std::memory_order_relaxed);

    publishStats(report);
    group_->absorbStats(stats_);
    return report;
}

void
TraversalService::publishStats(const ServiceReport &report)
{
    auto publishLat = [&](const std::string &prefix,
                          const LatencyHistogram &h) {
        stats_.scalar(prefix + ".lat_p50_cycles")
            .set(static_cast<double>(h.percentile(50)));
        stats_.scalar(prefix + ".lat_p99_cycles")
            .set(static_cast<double>(h.percentile(99)));
        stats_.scalar(prefix + ".lat_p999_cycles")
            .set(static_cast<double>(h.percentile(99.9)));
        stats_.scalar(prefix + ".lat_max_cycles")
            .set(static_cast<double>(h.max()));
    };
    auto publish = [&](const std::string &prefix, const TenantReport &tr) {
        stats_.counter(prefix + ".submitted") += tr.submitted;
        stats_.counter(prefix + ".completed") += tr.completed;
        stats_.counter(prefix + ".canceled") += tr.canceled;
        stats_.counter(prefix + ".batches") += tr.batches;
        publishLat(prefix, tr.latency);
        stats_.scalar(prefix + ".wait_p99_cycles")
            .set(static_cast<double>(tr.queueWait.percentile(99)));
    };
    TenantReport total;
    total.latency = report.latency;
    for (uint32_t t = 0; t < report.tenants.size(); ++t) {
        const TenantReport &tr = report.tenants[t];
        publish("service." + tr.name, tr);
        total.submitted += tr.submitted;
        total.completed += tr.completed;
        total.canceled += tr.canceled;
        total.batches += tr.batches;
        total.queueWait.merge(tr.queueWait);
    }
    publish("service.total", total);
    for (uint32_t c = 0; c < kNumSloClasses; ++c) {
        const ClassReport &cr = report.classes[c];
        if (!cr.completed)
            continue;
        std::string prefix = std::string("service.class.") +
                             sloClassName(static_cast<SloClass>(c));
        stats_.counter(prefix + ".completed") += cr.completed;
        publishLat(prefix, cr.latency);
        stats_.scalar(prefix + ".wait_p99_cycles")
            .set(static_cast<double>(cr.queueWait.percentile(99)));
    }
    for (uint32_t d = 0; d < report.devices.size(); ++d) {
        const DeviceReport &dr = report.devices[d];
        std::string prefix = "service.dev" + std::to_string(d);
        stats_.counter(prefix + ".batches") += dr.batches;
        stats_.counter(prefix + ".completed") += dr.completed;
        stats_.scalar(prefix + ".busy_cycles")
            .set(static_cast<double>(dr.busy));
        stats_.scalar(prefix + ".lat_p99_cycles")
            .set(static_cast<double>(dr.latency.percentile(99)));
    }
    stats_.counter("service.expired_dispatches") +=
        report.expiredDispatches;
    stats_.scalar("service.makespan_cycles")
        .set(static_cast<double>(report.makespan));
    stats_.scalar("service.device_busy_cycles")
        .set(static_cast<double>(report.deviceBusy));
    stats_.scalar("service.throughput_qpmc")
        .set(report.throughputQpmc());
}

} // namespace tta::service
