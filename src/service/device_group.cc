#include "service/device_group.hh"

#include "sim/logging.hh"

namespace tta::service {

DeviceGroup::DeviceGroup(const sim::Config &cfg, uint32_t num_devices,
                         bool pipelined)
    : pipelined_(pipelined)
{
    fatal_if(num_devices == 0, "DeviceGroup with zero devices");
    for (uint32_t d = 0; d < num_devices; ++d)
        devices_.push_back(std::make_unique<ServiceDevice>(cfg, d));
    // Every Worker exists before any thread starts: a running worker
    // reads workers_, so growing it afterwards would race.
    for (uint32_t d = 0; d < num_devices; ++d)
        workers_.push_back(std::make_unique<Worker>());
    if (pipelined_) {
        for (uint32_t d = 0; d < num_devices; ++d)
            workers_[d]->thread =
                std::thread([this, d] { workerLoop(d); });
    }
}

DeviceGroup::~DeviceGroup()
{
    for (auto &w : workers_) {
        if (!w->thread.joinable())
            continue;
        {
            std::lock_guard<std::mutex> lk(w->mu);
            w->stop = true;
        }
        w->cv.notify_all();
        w->thread.join();
    }
}

void
DeviceGroup::rethrowLocked(Worker &w)
{
    if (w.error)
        std::rethrow_exception(w.error);
}

void
DeviceGroup::reserveParity(uint32_t d, uint32_t parity)
{
    fatal_if(parity >= kStagingParities, "parity %u out of range",
             parity);
    Worker &w = *workers_[d];
    std::unique_lock<std::mutex> lk(w.mu);
    w.cv.wait(lk, [&] {
        return w.parityBusy[parity] == 0 || w.error;
    });
    rethrowLocked(w);
}

void
DeviceGroup::submit(uint32_t d, Launch launch)
{
    Worker &w = *workers_[d];
    if (!pipelined_) {
        runInline(d, launch);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(w.mu);
        rethrowLocked(w);
        ++w.parityBusy[launch.parity];
        w.launches.push_back(std::move(launch));
    }
    w.cv.notify_all();
}

sim::Cycle
DeviceGroup::collectElapsed(uint32_t d)
{
    Worker &w = *workers_[d];
    std::unique_lock<std::mutex> lk(w.mu);
    w.cv.wait(lk, [&] { return !w.elapsed.empty() || w.error; });
    if (w.elapsed.empty())
        rethrowLocked(w);
    sim::Cycle e = w.elapsed.front();
    w.elapsed.pop_front();
    return e;
}

void
DeviceGroup::drain()
{
    for (auto &wp : workers_) {
        Worker &w = *wp;
        std::unique_lock<std::mutex> lk(w.mu);
        w.cv.wait(lk, [&] {
            return (w.launches.empty() && w.verifies.empty() &&
                    !w.working) ||
                   w.error;
        });
        rethrowLocked(w);
    }
}

void
DeviceGroup::absorbStats(sim::StatRegistry &into) const
{
    for (const auto &dev : devices_)
        into.absorb(dev->stats());
}

void
DeviceGroup::runInline(uint32_t d, Launch &launch)
{
    // The serial twin of the worker protocol: launch, publish elapsed,
    // verify, release — all before submit() returns. Same observable
    // outputs as the pipelined path, by construction.
    Worker &w = *workers_[d];
    sim::Cycle e =
        devices_[d]->api().cmdTraverseTree(launch.slot, launch.queries);
    w.elapsed.push_back(e);
    size_t mismatches = launch.verify ? launch.verify() : 0;
    if (launch.onVerified)
        launch.onVerified(mismatches);
}

void
DeviceGroup::workerLoop(uint32_t d)
{
    Worker &w = *workers_[d];
    for (;;) {
        Launch task;
        bool isLaunch = false;
        {
            std::unique_lock<std::mutex> lk(w.mu);
            w.working = false;
            w.cv.notify_all();
            w.cv.wait(lk, [&] {
                return w.stop || !w.launches.empty() ||
                       !w.verifies.empty();
            });
            if (w.error)
                return;
            if (w.stop && w.launches.empty() && w.verifies.empty())
                return;
            // Launches first: the next batch's simulation overlaps the
            // previous batch's host-side verify.
            if (!w.launches.empty()) {
                task = std::move(w.launches.front());
                w.launches.pop_front();
                isLaunch = true;
            } else {
                task = std::move(w.verifies.front());
                w.verifies.pop_front();
            }
            w.working = true;
        }

        try {
            if (isLaunch) {
                sim::Cycle e = devices_[d]->api().cmdTraverseTree(
                    task.slot, task.queries);
                std::lock_guard<std::mutex> lk(w.mu);
                w.elapsed.push_back(e);
                w.verifies.push_back(std::move(task));
            } else {
                size_t mismatches = task.verify ? task.verify() : 0;
                if (task.onVerified)
                    task.onVerified(mismatches);
                std::lock_guard<std::mutex> lk(w.mu);
                --w.parityBusy[task.parity];
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(w.mu);
            w.error = std::current_exception();
            w.working = false;
            w.cv.notify_all();
            return;
        }
        w.cv.notify_all();
    }
}

} // namespace tta::service
