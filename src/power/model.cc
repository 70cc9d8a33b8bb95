#include "model.hh"

#include <bit>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

PowerModel::PowerModel(const PowerModelConfig &config)
    : config_(config),
      pipelineVdd_(config.vddHigh),
      vddHighSq(config.vddHigh * config.vddHigh)
{
    VSV_ASSERT(config.vddHigh > 0.0, "VDDH must be positive");
    VSV_ASSERT(config.vddLow > 0.0 && config.vddLow <= config.vddHigh,
               "VDDL must be in (0, VDDH]");
    VSV_ASSERT(config.gatingEfficiency >= 0.0 &&
               config.gatingEfficiency <= 1.0,
               "gating efficiency must be in [0,1]");
    VSV_ASSERT(config.leakageFraction >= 0.0,
               "leakage fraction must be non-negative");

    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const StructureParams &params =
            structureParams(static_cast<PowerStructure>(i));
        const double leak = config.leakageFraction * params.maxCyclePj;
        if (params.domain == VoltageDomain::Scaled)
            scaledLeakPerTick += leak;
        else
            fixedLeakPerTick += leak;

        // Gating-adjusted idle energy per clocked-but-unaccessed tick
        // at VDDH (the clock tree's entry is its per-edge energy).
        if (static_cast<PowerStructure>(i) == PowerStructure::ClockTree) {
            idleBasePj[i] = params.maxCyclePj;
            continue;
        }
        double idle = 0.0;
        switch (config.gating) {
          case GatingStyle::None:
            idle = params.maxCyclePj;
            break;
          case GatingStyle::Simple:
            idle = params.maxCyclePj * config.idleFraction;
            break;
          case GatingStyle::Dcg:
            idle = params.maxCyclePj * config.idleFraction;
            if (params.dcgGateable)
                idle *= 1.0 - config.gatingEfficiency;
            break;
          case GatingStyle::Ideal:
            idle = 0.0;
            break;
        }
        idleBasePj[i] = idle;
    }
    refreshCharges();
}

void
PowerModel::refreshCharges()
{
    scaledVsq = (pipelineVdd_ * pipelineVdd_) / vddHighSq;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const double vsq = domainVoltageSq(structureParams(s).domain);
        accessChargePj[i] = perAccessPj(s) * vsq;
        idleChargePj[i] = idleBasePj[i] * vsq;
    }
}

void
PowerModel::setPipelineVdd(double vdd)
{
    VSV_ASSERT(vdd >= config_.vddLow - 1e-9 &&
               vdd <= config_.vddHigh + 1e-9,
               "pipeline VDD outside [VDDL, VDDH]");
    if (vdd != pipelineVdd_) {
        // Banked idle ticks were accumulated at the old voltage.
        flushIdle();
        pipelineVdd_ = vdd;
        refreshCharges();
    }
}

void
PowerModel::addRampEnergy(Tick when)
{
    rampEnergy += config_.rampEnergyPj;
    if (trace) {
        trace->record(TraceCategory::Power, TraceEventKind::RampEnergy,
                      when,
                      std::bit_cast<std::uint64_t>(rampEnergy.value()));
    }
}

void
PowerModel::fanOutAccess(PowerStructure s, double count)
{
    for (PowerModel &follower : fanout_)
        follower.recordAccess(s, count);
}

void
PowerModel::tick(bool pipeline_edge)
{
    for (PowerModel &follower : fanout_)
        follower.tick(pipeline_edge);

    ++ticks;
    if (pipeline_edge)
        ++pipelineEdges;

    if (!anyAccessThisTick) {
        // Pure idle tick: just bank it. The voltage cannot change
        // without a flush (setPipelineVdd flushes on a value change),
        // so the conversion to energy can happen later, in bulk.
        if (pipeline_edge)
            ++pendingIdleEdges;
        else
            ++pendingIdleNoEdges;
        return;
    }

    flushIdle();
    chargeActiveTick(pipeline_edge);
    accessesThisTick.fill(0.0);
    anyAccessThisTick = false;
}

void
PowerModel::accrueIdleTicks(std::uint64_t edges, std::uint64_t no_edges)
{
    VSV_ASSERT(!anyAccessThisTick,
               "accrueIdleTicks with accesses not yet closed by tick()");
    ticks += static_cast<double>(edges + no_edges);
    pipelineEdges += static_cast<double>(edges);
    pendingIdleEdges += edges;
    pendingIdleNoEdges += no_edges;
}

void
PowerModel::flushIdle() const
{
    if (pendingIdleEdges == 0 && pendingIdleNoEdges == 0)
        return;
    auto *self = const_cast<PowerModel *>(this);
    const std::uint64_t edges = pendingIdleEdges;
    const std::uint64_t all = pendingIdleEdges + pendingIdleNoEdges;
    self->pendingIdleEdges = 0;
    self->pendingIdleNoEdges = 0;

    if (scaledLeakPerTick > 0.0 || fixedLeakPerTick > 0.0) {
        const double vratio = pipelineVdd_ / config_.vddHigh;
        self->leakageEnergy +=
            static_cast<double>(all) *
            (fixedLeakPerTick +
             scaledLeakPerTick * vratio * vratio * vratio);
    }

    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        // The clock tree charges per pipeline edge; the L2 runs on the
        // full-speed clock every tick; everything else - including the
        // VDDH L1s and the register file - is clocked with the
        // pipeline and idles only on edges.
        const std::uint64_t n =
            s == PowerStructure::L2Cache ? all : edges;
        if (n == 0 || idleBasePj[i] == 0.0)
            continue;
        self->energyPj[i] += static_cast<double>(n) * idleBasePj[i] *
                             domainVoltageSq(params.domain);
    }
}

void
PowerModel::chargeActiveTick(bool pipeline_edge)
{
    // Leakage accrues every tick, ungateable; the scaled domain's
    // share falls with roughly VDD^3 (subthreshold DIBL), the paper's
    // cited leakage benefit of supply scaling.
    if (scaledLeakPerTick > 0.0 || fixedLeakPerTick > 0.0) {
        const double vratio = pipelineVdd_ / config_.vddHigh;
        leakageEnergy += fixedLeakPerTick +
                         scaledLeakPerTick * vratio * vratio * vratio;
    }

    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);

        // The global clock tree burns a full "cycle" of energy on
        // every pipeline clock edge; in the low-power mode edges come
        // at half rate, so clock power halves on top of the V^2 drop.
        if (s == PowerStructure::ClockTree) {
            if (pipeline_edge)
                energyPj[i] += idleChargePj[i];
            continue;
        }

        if (accessesThisTick[i] > 0.0)
            continue;  // active structures already paid access energy

        // Idle (clock-load) power. The L2 runs on the full-speed
        // clock; everything else - including the VDDH L1s and the
        // register file - is clocked with the pipeline.
        const bool clocked =
            s == PowerStructure::L2Cache ? true : pipeline_edge;
        if (!clocked)
            continue;

        energyPj[i] += idleChargePj[i];
    }
}

double
PowerModel::totalEnergyPj() const
{
    flushIdle();
    double total = rampEnergy.value() + leakageEnergy.value();
    for (const auto &e : energyPj)
        total += e.value();
    return total;
}

double
PowerModel::peekTotalEnergyPj() const
{
    double total = rampEnergy.value() + leakageEnergy.value();
    for (const auto &e : energyPj)
        total += e.value();

    // Add what flushIdle() *would* contribute, without flushing.
    const std::uint64_t edges = pendingIdleEdges;
    const std::uint64_t all = pendingIdleEdges + pendingIdleNoEdges;
    if (all == 0)
        return total;

    if (scaledLeakPerTick > 0.0 || fixedLeakPerTick > 0.0) {
        const double vratio = pipelineVdd_ / config_.vddHigh;
        total += static_cast<double>(all) *
                 (fixedLeakPerTick +
                  scaledLeakPerTick * vratio * vratio * vratio);
    }
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        const std::uint64_t n =
            s == PowerStructure::L2Cache ? all : edges;
        if (n == 0 || idleBasePj[i] == 0.0)
            continue;
        total += static_cast<double>(n) * idleBasePj[i] *
                 domainVoltageSq(params.domain);
    }
    return total;
}

double
PowerModel::structureEnergyPj(PowerStructure s) const
{
    flushIdle();
    return energyPj[static_cast<std::size_t>(s)].value();
}

double
PowerModel::domainEnergyPj(VoltageDomain domain) const
{
    flushIdle();
    double total = 0.0;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        if (structureParams(static_cast<PowerStructure>(i)).domain ==
            domain) {
            total += energyPj[i].value();
        }
    }
    return total;
}

double
PowerModel::averagePowerW(Tick duration_ticks) const
{
    if (duration_ticks == 0)
        return 0.0;
    // pJ per ns == mW; convert to watts.
    return totalEnergyPj() / static_cast<double>(duration_ticks) * 1e-3;
}

void
PowerModel::snapshot(SnapshotWriter &writer) const
{
    writer.begin("power");
    writer.u32(static_cast<std::uint32_t>(numPowerStructures));
    writer.f64(pipelineVdd_);
    writer.b(lowPowerPath);
    writer.b(anyAccessThisTick);
    for (const double accesses : accessesThisTick)
        writer.f64(accesses);
    for (const Scalar &energy : energyPj)
        writer.scalar(energy);
    writer.scalar(rampEnergy);
    writer.scalar(leakageEnergy);
    writer.scalar(ticks);
    writer.scalar(pipelineEdges);
    writer.u64(pendingIdleEdges);
    writer.u64(pendingIdleNoEdges);
    writer.end();
}

void
PowerModel::restore(SnapshotReader &reader)
{
    reader.begin("power");
    reader.expectU32(static_cast<std::uint32_t>(numPowerStructures),
                     "power structure count");
    pipelineVdd_ = reader.f64();
    lowPowerPath = reader.b();
    refreshCharges();
    anyAccessThisTick = reader.b();
    for (double &accesses : accessesThisTick)
        accesses = reader.f64();
    for (Scalar &energy : energyPj)
        reader.scalar(energy);
    reader.scalar(rampEnergy);
    reader.scalar(leakageEnergy);
    reader.scalar(ticks);
    reader.scalar(pipelineEdges);
    pendingIdleEdges = reader.u64();
    pendingIdleNoEdges = reader.u64();
    reader.end();
}

void
PowerModel::regStats(StatRegistry &registry, const std::string &prefix) const
{
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        registry.registerScalar(
            prefix + ".energy." + std::string(powerStructureName(s)),
            &energyPj[i],
            "dynamic energy (pJ)");
    }
    registry.registerScalar(prefix + ".energy.ramp", &rampEnergy,
                            "dual-rail ramp energy (pJ)");
    registry.registerScalar(prefix + ".energy.leakage", &leakageEnergy,
                            "leakage energy (pJ); zero unless modeled");
    registry.registerScalar(prefix + ".ticks", &ticks,
                            "global ticks accounted");
    registry.registerScalar(prefix + ".pipelineEdges", &pipelineEdges,
                            "pipeline clock edges");
}

} // namespace vsv
