#include "model.hh"

#include <bit>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

PowerModel::RailState::RailState(const PowerModelConfig &config)
    : config(config), pipelineVdd(config.vddHigh)
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
    leaks = scaledLeakPerTick > 0.0 || fixedLeakPerTick > 0.0;
}

PowerModel::PowerModel(const PowerModelConfig &config)
    : PowerModel(std::span(&config, 1))
{
}

PowerModel::PowerModel(std::span<const PowerModelConfig> rails)
    : railCount_(rails.size()),
      energyPj(numPowerStructures * rails.size()),
      accessChargePj(numPowerStructures * rails.size()),
      idleChargePj(numPowerStructures * rails.size())
{
    VSV_ASSERT(!rails.empty(), "a power ledger needs at least one rail");
    rails_.reserve(railCount_);
    for (const PowerModelConfig &config : rails)
        rails_.emplace_back(config);
    for (std::size_t r = 0; r < railCount_; ++r)
        loadCharges(r);
}

PowerModel::Rail
PowerModel::rail(std::size_t r)
{
    VSV_ASSERT(r < railCount_, "power rail out of range");
    return Rail(*this, r);
}

PowerModel::ChargeRow
PowerModel::RailState::computeChargeRow() const
{
    ChargeRow row;
    row.vddBits = std::bit_cast<std::uint64_t>(pipelineVdd);
    row.lowPowerPath = lowPowerPath;
    row.scaledVsq = (pipelineVdd * pipelineVdd) /
                    (config.vddHigh * config.vddHigh);
    const double vratio = pipelineVdd / config.vddHigh;
    row.leakPerTick =
        fixedLeakPerTick + scaledLeakPerTick * vratio * vratio * vratio;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const double vsq =
            structureParams(s).domain == VoltageDomain::Fixed
                ? 1.0
                : row.scaledVsq;
        row.access[i] = perAccessPj(s) * vsq;
        row.idle[i] = idleBasePj[i] * vsq;
    }
    return row;
}

const PowerModel::ChargeRow &
PowerModel::RailState::chargeRow()
{
    // A ramp uses its rows in the order it first added them, so the
    // search starts after the last hit.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(pipelineVdd);
    const std::size_t rows = chargeRows.size();
    for (std::size_t k = 1; k <= rows; ++k) {
        const std::size_t i = (lastRow + k) % rows;
        if (chargeRows[i].vddBits == bits &&
            chargeRows[i].lowPowerPath == lowPowerPath) {
            lastRow = i;
            return chargeRows[i];
        }
    }
    if (rows == maxChargeRows)
        chargeRows.clear();
    chargeRows.push_back(computeChargeRow());
    lastRow = chargeRows.size() - 1;
    return chargeRows.back();
}

void
PowerModel::loadCharges(std::size_t rail)
{
    RailState &state = rails_[rail];
    const ChargeRow &row = state.chargeRow();
    state.scaledVsq = row.scaledVsq;
    state.leakPerTick = row.leakPerTick;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        accessChargePj[i * railCount_ + rail] = row.access[i];
        idleChargePj[i * railCount_ + rail] = row.idle[i];
    }
}

void
PowerModel::changeSupply(double vdd, bool low, std::size_t rail)
{
    RailState &state = rails_[rail];
    if (vdd != state.pipelineVdd) {
        VSV_ASSERT(vdd >= state.config.vddLow - 1e-9 &&
                   vdd <= state.config.vddHigh + 1e-9,
                   "pipeline VDD outside [VDDL, VDDH]");
        // Banked idle ticks were accumulated at the old voltage.
        flushRail(rail);
        state.pipelineVdd = vdd;
    }
    state.lowPowerPath = low;
    loadCharges(rail);
}

void
PowerModel::addRampEnergy(Tick when, std::size_t rail)
{
    RailState &state = rails_[rail];
    state.rampEnergy += state.config.rampEnergyPj;
    if (state.trace) {
        state.trace->record(
            TraceCategory::Power, TraceEventKind::RampEnergy, when,
            std::bit_cast<std::uint64_t>(state.rampEnergy.value()));
    }
}

void
PowerModel::chargeUnevenAccesses(PowerStructure s, std::uint32_t count)
{
    const auto idx = static_cast<std::size_t>(s);
    const VoltageDomain domain = structureParams(s).domain;
    for (std::size_t r = 0; r < railCount_; ++r) {
        const RailState &state = rails_[r];
        energyPj[idx * railCount_ + r] += static_cast<double>(count) *
                                          state.perAccessPj(s) *
                                          state.domainVoltageSq(domain);
    }
}

template <std::size_t Rails>
void
PowerModel::closeRails(bool pipeline_edge)
{
    const std::size_t n = Rails != 0 ? Rails : railCount_;
    // Leakage accrues every tick, ungateable; the scaled domain's
    // share falls with roughly VDD^3 (subthreshold DIBL), the paper's
    // cited leakage benefit of supply scaling.
    for (std::size_t r = 0; r < n; ++r) {
        flushRail(r);
        RailState &state = rails_[r];
        if (state.leaks)
            state.leakageEnergy += state.leakPerTick;
    }

    // The global clock tree burns a full "cycle" of energy on every
    // pipeline clock edge; in the low-power mode edges come at half
    // rate, so clock power halves on top of the V^2 drop. Idle
    // (clock-load) power goes to the clocked structures that recorded
    // no access (active ones already paid access energy). The L2 runs
    // on the full-speed clock; everything else - including the VDDH
    // L1s and the register file - is clocked with the pipeline. Each
    // accumulator takes at most one addition here, so walking the
    // bits changes no sum.
    std::uint32_t idle = pipeline_edge
                             ? (idleOnEdge & ~accessedMask) | clockTreeBit
                             : idleOnEveryTick & ~accessedMask;
    for (; idle != 0; idle &= idle - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(idle));
        Scalar *energy = energyPj.data() + i * n;
        const double *charge = idleChargePj.data() + i * n;
        for (std::size_t r = 0; r < n; ++r)
            energy[r] += charge[r];
    }
    if (countingAccesses)
        accessesThisTick.fill(0);
    accessedMask = 0;
}

void
PowerModel::closeActiveTick(bool pipeline_edge)
{
    if (railCount_ == 1)
        closeRails<1>(pipeline_edge);
    else
        closeRails<0>(pipeline_edge);
}

void
PowerModel::accrueIdleTicks(std::uint64_t edges, std::uint64_t no_edges)
{
    VSV_ASSERT(accessedMask == 0,
               "accrueIdleTicks with accesses not yet closed by tick()");
    ticks += edges + no_edges;
    pipelineEdges += edges;
    idleEdges += edges;
    idleNoEdges += no_edges;
}

void
PowerModel::flushIdle() const
{
    for (std::size_t r = 0; r < railCount_; ++r)
        flushRail(r);
}

void
PowerModel::flushPendingIdle(std::size_t rail) const
{
    auto *self = const_cast<PowerModel *>(this);
    RailState &state = self->rails_[rail];
    const std::uint64_t edges = idleEdges - state.flushedIdleEdges;
    const std::uint64_t all =
        edges + (idleNoEdges - state.flushedIdleNoEdges);
    state.flushedIdleEdges = idleEdges;
    state.flushedIdleNoEdges = idleNoEdges;

    if (state.leaks)
        state.leakageEnergy += static_cast<double>(all) * state.leakPerTick;

    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        // The clock tree charges per pipeline edge; the L2 runs on the
        // full-speed clock every tick; everything else - including the
        // VDDH L1s and the register file - is clocked with the
        // pipeline and idles only on edges.
        const std::uint64_t n =
            s == PowerStructure::L2Cache ? all : edges;
        if (n == 0 || state.idleBasePj[i] == 0.0)
            continue;
        self->energyPj[i * railCount_ + rail] +=
            static_cast<double>(n) * state.idleBasePj[i] *
            state.domainVoltageSq(params.domain);
    }
}

double
PowerModel::totalEnergyPj(std::size_t rail) const
{
    flushRail(rail);
    return peekTotalEnergyPj(rail);
}

double
PowerModel::peekTotalEnergyPj(std::size_t rail) const
{
    const RailState &state = rails_[rail];
    double total = state.rampEnergy.value() + state.leakageEnergy.value();
    for (std::size_t i = 0; i < numPowerStructures; ++i)
        total += energyPj[i * railCount_ + rail].value();

    // Add what a flush *would* contribute, without flushing.
    const std::uint64_t edges = idleEdges - state.flushedIdleEdges;
    const std::uint64_t all =
        edges + (idleNoEdges - state.flushedIdleNoEdges);
    if (all == 0)
        return total;

    if (state.leaks)
        total += static_cast<double>(all) * state.leakPerTick;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        const std::uint64_t n =
            s == PowerStructure::L2Cache ? all : edges;
        if (n == 0 || state.idleBasePj[i] == 0.0)
            continue;
        total += static_cast<double>(n) * state.idleBasePj[i] *
                 state.domainVoltageSq(params.domain);
    }
    return total;
}

double
PowerModel::structureEnergyPj(PowerStructure s, std::size_t rail) const
{
    flushRail(rail);
    return energyPj[static_cast<std::size_t>(s) * railCount_ + rail].value();
}

double
PowerModel::domainEnergyPj(VoltageDomain domain, std::size_t rail) const
{
    flushRail(rail);
    double total = 0.0;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        if (structureParams(static_cast<PowerStructure>(i)).domain ==
            domain) {
            total += energyPj[i * railCount_ + rail].value();
        }
    }
    return total;
}

double
PowerModel::averagePowerW(Tick duration_ticks, std::size_t rail) const
{
    if (duration_ticks == 0)
        return 0.0;
    // pJ per ns == mW; convert to watts.
    return totalEnergyPj(rail) / static_cast<double>(duration_ticks) *
           1e-3;
}

namespace
{

/** A count a snapshot stores as a double: a whole number, exact below
 *  2^53. */
std::uint64_t
readCount(SnapshotReader &reader, const char *what)
{
    const double count = reader.f64();
    if (!(count >= 0.0 && count < 0x1p53) ||
        count != static_cast<double>(static_cast<std::uint64_t>(count))) {
        throw SnapshotError(std::string("snapshot: ") + what +
                            " is not a whole number below 2^53");
    }
    return static_cast<std::uint64_t>(count);
}

} // namespace

void
PowerModel::snapshot(SnapshotWriter &writer) const
{
    VSV_ASSERT(railCount_ == 1, "only a one-rail ledger snapshots");
    VSV_ASSERT(countingAccesses,
               "power snapshot after stopCountingAccesses()");
    const RailState &state = rails_[0];
    writer.begin("power");
    writer.u32(static_cast<std::uint32_t>(numPowerStructures));
    writer.f64(state.pipelineVdd);
    writer.b(state.lowPowerPath);
    writer.b(accessedMask != 0);
    for (const std::uint64_t accesses : accessesThisTick)
        writer.f64(static_cast<double>(accesses));
    for (const Scalar &energy : energyPj)
        writer.scalar(energy);
    writer.scalar(state.rampEnergy);
    writer.scalar(state.leakageEnergy);
    writer.f64(ticks.value());
    writer.f64(pipelineEdges.value());
    writer.u64(idleEdges - state.flushedIdleEdges);
    writer.u64(idleNoEdges - state.flushedIdleNoEdges);
    writer.end();
}

void
PowerModel::restore(SnapshotReader &reader)
{
    VSV_ASSERT(railCount_ == 1, "only a one-rail ledger restores");
    RailState &state = rails_[0];
    reader.begin("power");
    reader.expectU32(static_cast<std::uint32_t>(numPowerStructures),
                     "power structure count");
    state.pipelineVdd = reader.f64();
    state.lowPowerPath = reader.b();
    // The charge rows are derived state: rebuilt from here on.
    state.chargeRows.clear();
    loadCharges(0);
    const bool any_access = reader.b();
    accessedMask = 0;
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        accessesThisTick[i] = readCount(reader, "power access count");
        if (accessesThisTick[i] != 0)
            accessedMask |= std::uint32_t{1} << i;
    }
    if (any_access != (accessedMask != 0)) {
        throw SnapshotError(
            "snapshot: power activity flag disagrees with its counts");
    }
    for (Scalar &energy : energyPj)
        reader.scalar(energy);
    reader.scalar(state.rampEnergy);
    reader.scalar(state.leakageEnergy);
    ticks = Counter(readCount(reader, "power tick count"));
    pipelineEdges = Counter(readCount(reader, "power edge count"));
    idleEdges = reader.u64();
    idleNoEdges = reader.u64();
    state.flushedIdleEdges = 0;
    state.flushedIdleNoEdges = 0;
    reader.end();
}

void
PowerModel::regStats(StatRegistry &registry, const std::string &prefix,
                     std::size_t rail) const
{
    const RailState &state = rails_[rail];
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        registry.registerScalar(
            prefix + ".energy." + std::string(powerStructureName(s)),
            &energyPj[i * railCount_ + rail],
            "dynamic energy (pJ)");
    }
    registry.registerScalar(prefix + ".energy.ramp", &state.rampEnergy,
                            "dual-rail ramp energy (pJ)");
    registry.registerScalar(prefix + ".energy.leakage",
                            &state.leakageEnergy,
                            "leakage energy (pJ); zero unless modeled");
    registry.registerScalar(prefix + ".ticks", &ticks,
                            "global ticks accounted");
    registry.registerScalar(prefix + ".pipelineEdges", &pipelineEdges,
                            "pipeline clock edges");
}

} // namespace vsv
