#include "service/tenants.hh"

#include "sim/logging.hh"

namespace tta::service {

Tenant::Binding &
Tenant::newBinding(const ServiceDevice &dev)
{
    fatal_if(dev.index() != bindings_.size(),
             "tenant '%s': install on device %u out of order (have %zu)",
             name_.c_str(), dev.index(), bindings_.size());
    bindings_.emplace_back();
    return bindings_.back();
}

// --- BTreeTenant --------------------------------------------------------

BTreeTenantData::BTreeTenantData(size_t n_keys, size_t pool_size,
                                 uint64_t seed, double hit_rate)
    : BTreeInputs(trees::BTreeKind::BPlusTree, n_keys, pool_size, seed,
                  hit_rate)
{
    fatal_if(pool_size == 0, "BTreeTenantData: empty payload pool");
}

std::shared_ptr<const BTreeTenantData>
BTreeTenantData::build(size_t n_keys, size_t pool_size, uint64_t seed,
                       double hit_rate)
{
    return std::make_shared<const BTreeTenantData>(n_keys, pool_size,
                                                   seed, hit_rate);
}

BTreeTenant::BTreeTenant(std::string name, size_t n_keys,
                         size_t pool_size, uint64_t seed, double hit_rate)
    : BTreeTenant(std::move(name),
                  BTreeTenantData::build(n_keys, pool_size, seed,
                                         hit_rate))
{}

void
BTreeTenant::install(ServiceDevice &dev, uint32_t max_batch)
{
    Binding &b = newBinding(dev);
    mem::GlobalMemory &gmem = dev.memory();
    uint64_t root = data_->tree.serialize(gmem);
    for (uint32_t p = 0; p < kStagingParities; ++p) {
        const workloads::BTreeLanes &l = addLanes(dev, b, p, max_batch);
        specs_.push_back(std::make_unique<workloads::BTreeSpec>(
            gmem, root, l.queryBase, l.resultBase));
        b.slot[p] = dev.bindPipelineSlot(
            workloads::BTreeWorkload::makePipeline(), specs_.back().get());
    }
}

// --- RadiusTenant -------------------------------------------------------

RadiusTenantData::RadiusTenantData(size_t n_points, size_t pool_size,
                                   float radius, uint64_t seed)
    : RadiusInputs(n_points, pool_size, radius, seed)
{
    fatal_if(pool_size == 0, "RadiusTenantData: empty payload pool");
}

std::shared_ptr<const RadiusTenantData>
RadiusTenantData::build(size_t n_points, size_t pool_size, float radius,
                        uint64_t seed)
{
    return std::make_shared<const RadiusTenantData>(n_points, pool_size,
                                                    radius, seed);
}

RadiusTenant::RadiusTenant(std::string name, size_t n_points,
                           size_t pool_size, float radius, uint64_t seed)
    : RadiusTenant(std::move(name),
                   RadiusTenantData::build(n_points, pool_size, radius,
                                           seed))
{}

void
RadiusTenant::install(ServiceDevice &dev, uint32_t max_batch)
{
    Binding &b = newBinding(dev);
    mem::GlobalMemory &gmem = dev.memory();
    trees::SerializedBvh sbvh = data_->index->bvh().serialize(gmem);
    uint64_t pointBase = data_->cloud.serialize(gmem);
    for (uint32_t p = 0; p < kStagingParities; ++p) {
        const workloads::RadiusLanes &l = addLanes(dev, b, p, max_batch);
        specs_.push_back(std::make_unique<workloads::RtnnSpec>(
            gmem, sbvh, pointBase, l.queryBase, l.resultBase,
            data_->index->radius(), /*offload_leaf=*/true));
        b.slot[p] = dev.bindPipelineSlot(
            workloads::RtnnWorkload::makePipeline(/*offload_leaf=*/true),
            specs_.back().get());
    }
}

// --- RayTenant ----------------------------------------------------------

RayTenantData::RayTenantData(workloads::SceneKind kind, size_t pool_size,
                             uint64_t seed)
    : scene(kind, seed),
      pool(workloads::RayTracingWorkload::randomPrimaryRays(
          scene, pool_size, seed))
{
    fatal_if(pool_size == 0, "RayTenantData: empty payload pool");
    expected.reserve(pool_size);
    for (const workloads::RtRay &r : pool)
        expected.push_back(scene.reference(r));
}

std::shared_ptr<const RayTenantData>
RayTenantData::build(workloads::SceneKind kind, size_t pool_size,
                     uint64_t seed)
{
    return std::make_shared<const RayTenantData>(kind, pool_size, seed);
}

void
RayTenant::install(ServiceDevice &dev, uint32_t max_batch)
{
    Binding &b = newBinding(dev);
    mem::GlobalMemory &gmem = dev.memory();
    const workloads::RtScene &scene = data_->scene;
    workloads::RtSceneImage image = scene.serialize(gmem);
    for (uint32_t p = 0; p < kStagingParities; ++p) {
        const workloads::RayLanes &l = addLanes(dev, b, p, max_batch);
        specs_.push_back(std::make_unique<workloads::RtSpec>(
            gmem, scene, image, l.rays, l.resultBase,
            workloads::RtOptions{}));
        b.slot[p] = dev.bindPipelineSlot(
            workloads::RayTracingWorkload::makePipeline(
                scene.kind(), workloads::RtOptions{}),
            specs_.back().get());
    }
}

} // namespace tta::service
