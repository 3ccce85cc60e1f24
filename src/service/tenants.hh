/**
 * @file
 * Service tenants: one long-lived tree, installed on every device.
 *
 * A tenant owns (or shares) a host-side index — B-Tree, radius-search
 * BVH, or a ray-tracing scene — and installs it on each device of a
 * DeviceGroup: serialize the tree into that device's memory, allocate
 * query/result staging buffers, and bind pipeline slots. Per batch,
 * the service asks the tenant to stage payloads into one device's
 * staging area and, after the launch, to verify the device results
 * against the host reference — so the serving loop is continuously
 * self-checking on every device.
 *
 * Staging is double-buffered: install() binds kStagingParities (two)
 * independent slot/buffer sets per device, and each writeBatch /
 * launch / verifyBatch round names the parity it uses. Launch k+1 can
 * therefore stage and run while launch k (the other parity) is still
 * being verified. Each (device, parity) pair has its own pipeline
 * slot, spec, and buffers; the tenant touches nothing else per batch,
 * which is what makes concurrent per-device workers race-free.
 *
 * The expensive host state — tree build, payload pool, reference
 * results — lives in immutable *TenantData structs shared by any
 * number of tenant instances (and, via bench::WorkloadCache, across
 * repeated service runs). Payloads come from that pre-generated
 * verified pool: arrival k of a tenant carries pool index
 * k % poolSize(). This keeps the query mix deterministic and lets
 * millions of arrivals reuse host references computed once.
 *
 * Each kind's input builder (BTreeInputs, RadiusInputs, the RtScene
 * and its camera rays) and buffer codec (BTreeLanes, RadiusLanes,
 * RayLanes) live in src/workloads, next to the figure workload that
 * uses the same ones; a tenant only binds them per (device, parity).
 */

#ifndef TTA_SERVICE_TENANTS_HH
#define TTA_SERVICE_TENANTS_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "service/device_group.hh"
#include "service/queue.hh"
#include "sim/logging.hh"
#include "trees/btree.hh"
#include "trees/pointcloud.hh"
#include "workloads/btree_workload.hh"
#include "workloads/raytracing_workload.hh"
#include "workloads/rtnn_workload.hh"

namespace tta::service {

class Tenant
{
  public:
    explicit Tenant(std::string name) : name_(std::move(name)) {}
    virtual ~Tenant() = default;

    const std::string &name() const { return name_; }
    uint32_t poolSize() const
    {
        return static_cast<uint32_t>(poolSize_);
    }

    /** Pipeline slot bound for (device, parity). */
    uint32_t slot(uint32_t device, uint32_t parity) const
    {
        return bindings_[device].slot[parity];
    }

    /**
     * Serialize the tree into @p dev, allocate dual-parity staging
     * buffers for up to @p max_batch queries each, and bind one
     * pipeline slot per parity. Call once per device, in device-index
     * order.
     */
    virtual void install(ServiceDevice &dev, uint32_t max_batch) = 0;

    /** Stage the batch's payloads into @p dev's parity-@p parity
     *  buffers (lane i of the launch reads staging slot i). */
    virtual void writeBatch(ServiceDevice &dev, uint32_t parity,
                            const std::vector<QueryTicket> &batch) = 0;

    /** Check device results in @p dev's parity-@p parity buffers
     *  against the host reference. @return mismatch count (0 = pass).
     *  Runs on the device's worker thread; touches only that
     *  (device, parity)'s buffers. */
    virtual size_t
    verifyBatch(const ServiceDevice &dev, uint32_t parity,
                const std::vector<QueryTicket> &batch) const = 0;

    /** Mismatches tolerated per batch (ray traversal order can tie on
     *  equal-t hits; exact-result tenants keep 0). */
    virtual size_t verifyTolerance(size_t) const { return 0; }

  protected:
    struct Binding
    {
        uint32_t slot[kStagingParities] = {0, 0};
        uint64_t resultBase[kStagingParities] = {0, 0};
    };

    /** Append the binding record for @p dev (enforces index order). */
    Binding &newBinding(const ServiceDevice &dev);

    std::string name_;
    size_t poolSize_ = 0;
    std::vector<Binding> bindings_; //!< indexed by device
};

/**
 * The batch protocol the kinds share: payloads index the data's
 * verified `pool`, and the kind's buffer codec (workloads::*Lanes, one
 * per (device, parity)) stages them and checks the results against
 * `expected`. A kind only implements install(): serialize its tree,
 * then per parity addLanes() and bind a spec.
 */
template <class Data, class Lanes>
class PoolTenant : public Tenant
{
  public:
    PoolTenant(std::string name, std::shared_ptr<const Data> data)
        : Tenant(std::move(name)), data_(std::move(data))
    {
        fatal_if(!data_, "tenant '%s': null data", name_.c_str());
        poolSize_ = data_->pool.size();
    }

    void
    writeBatch(ServiceDevice &dev, uint32_t parity,
               const std::vector<QueryTicket> &batch) override
    {
        mem::GlobalMemory &gmem = dev.memory();
        Lanes &l = lanes_[dev.index() * kStagingParities + parity];
        for (size_t i = 0; i < batch.size(); ++i)
            l.stage(gmem, i, data_->pool[batch[i].payload]);
    }

    size_t
    verifyBatch(const ServiceDevice &dev, uint32_t parity,
                const std::vector<QueryTicket> &batch) const override
    {
        return lanes_[dev.index() * kStagingParities + parity].mismatches(
            dev.memory(), batch.size(), [&](size_t i) -> const auto & {
                return data_->expected[batch[i].payload];
            });
    }

  protected:
    /** Allocate parity @p p's lanes in @p dev's memory (in device,
     *  then parity order) and record their result base in @p b. */
    Lanes &
    addLanes(ServiceDevice &dev, Binding &b, uint32_t p, uint32_t max_batch)
    {
        lanes_.push_back(Lanes::alloc(dev.memory(), max_batch));
        b.resultBase[p] = lanes_.back().resultBase;
        return lanes_.back();
    }

    std::shared_ptr<const Data> data_;
    //! deque: a spec may point into its lanes, so they never move
    std::deque<Lanes> lanes_;
    std::vector<std::unique_ptr<rta::TraversalSpec>> specs_;
};

/** Shared immutable state of a B-Tree tenant: a B+Tree and its
 *  verified pool. */
struct BTreeTenantData : workloads::BTreeInputs
{
    BTreeTenantData(size_t n_keys, size_t pool_size, uint64_t seed,
                    double hit_rate);

    static std::shared_ptr<const BTreeTenantData>
    build(size_t n_keys, size_t pool_size, uint64_t seed,
          double hit_rate = 0.5);
};

/** B-Tree point lookups: float key -> found bit. */
class BTreeTenant : public PoolTenant<BTreeTenantData, workloads::BTreeLanes>
{
  public:
    using PoolTenant::PoolTenant;
    BTreeTenant(std::string name, size_t n_keys, size_t pool_size,
                uint64_t seed, double hit_rate = 0.5);

    void install(ServiceDevice &dev, uint32_t max_batch) override;
};

/** Shared immutable state of a radius tenant: cloud, index, verified
 *  pool. */
struct RadiusTenantData : workloads::RadiusInputs
{
    RadiusTenantData(size_t n_points, size_t pool_size, float radius,
                     uint64_t seed);

    static std::shared_ptr<const RadiusTenantData>
    build(size_t n_points, size_t pool_size, float radius,
          uint64_t seed);
};

/** RTNN-style fixed-radius neighbor counting over a point cloud. */
class RadiusTenant
    : public PoolTenant<RadiusTenantData, workloads::RadiusLanes>
{
  public:
    using PoolTenant::PoolTenant;
    RadiusTenant(std::string name, size_t n_points, size_t pool_size,
                 float radius, uint64_t seed);

    void install(ServiceDevice &dev, uint32_t max_batch) override;
};

/** Shared immutable state of a ray tenant: the scene, a pool of random
 *  camera rays and their reference hits. Every tenant made from it
 *  serializes this one scene into each device it installs on. */
struct RayTenantData
{
    RayTenantData(workloads::SceneKind kind, size_t pool_size,
                  uint64_t seed);

    static std::shared_ptr<const RayTenantData>
    build(workloads::SceneKind kind, size_t pool_size, uint64_t seed);

    workloads::RtScene scene;
    std::vector<workloads::RtRay> pool;
    std::vector<workloads::RtHit> expected;
};

/** Closest-hit rays into a procedural scene. */
class RayTenant : public PoolTenant<RayTenantData, workloads::RayLanes>
{
  public:
    using PoolTenant::PoolTenant;

    void install(ServiceDevice &dev, uint32_t max_batch) override;
    size_t verifyTolerance(size_t batch_size) const override
    {
        return workloads::RayLanes::tolerance(batch_size);
    }
};

} // namespace tta::service

#endif // TTA_SERVICE_TENANTS_HH
