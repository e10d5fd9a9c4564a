package cluster

import (
	"time"

	"repro/internal/simclock"
)

// CostModel holds the calibrated constants that convert simulated I/O and
// CPU work into time. Defaults approximate the paper's testbed (m5.xlarge
// VMs, gp SSD volumes, 25 Gb/s network, Ceph Quincy defaults) and are
// calibrated once so the normalized figures land near the paper's values;
// see EXPERIMENTS.md for the calibration record.
type CostModel struct {
	// Disk characteristics of one OSD volume.
	DiskReadBW  float64 // bytes/sec
	DiskWriteBW float64 // bytes/sec
	// DiskSeek is charged once per discontiguous run of a read request
	// (sub-chunk reads of Clay are strided, whole-chunk reads are one run).
	DiskSeek simclock.Time
	// DiskBlock is the granularity below which strided sub-chunk reads
	// coalesce into whole-range reads (read-ahead / block granularity).
	DiskBlock int64

	// PerIOOverhead is charged per discrete I/O operation submitted to a
	// device (request setup, interrupt, completion).
	PerIOOverhead simclock.Time

	// MetaLookup is the cost of a cold onode/KV lookup before a chunk
	// read; cache hits (per the BlueStore cache model) waive a fraction.
	MetaLookup simclock.Time

	// DecodeBW is the GF(2^8) multiply-accumulate throughput of one OSD
	// core, in bytes/sec of *source* data processed.
	DecodeBW float64
	// ClaySubChunkCPU is the pure transform CPU per processed sub-chunk
	// of Clay's plane-by-plane repair (pairwise transforms, per-plane
	// solves), calibrated against the codec micro-benchmarks (CHANGES.md,
	// PR 2/3; numbers at DefaultCostModel).
	ClaySubChunkCPU simclock.Time
	// ClaySubChunkOp is the per-sub-chunk operation overhead beyond the
	// transform itself — fragmented sub-chunk read handling, RPC
	// batching, plane bookkeeping in the OSD — which a pure codec
	// benchmark cannot see but the paper's Fig. 2c blowup at tiny stripe
	// units requires. Together the two terms keep the calibrated
	// 10us/sub-chunk the figures were validated against.
	ClaySubChunkOp simclock.Time

	// RepairOpOverhead is the fixed cost per object-repair operation
	// (RPC round trips, queueing, commit), independent of size.
	RepairOpOverhead simclock.Time

	// Failure handling (Ceph defaults: 6s heartbeat, 20s grace, 600s
	// mon_osd_down_out_interval).
	HeartbeatInterval simclock.Time
	HeartbeatGrace    simclock.Time
	// MarkOutInterval is the delay between marking an OSD down and
	// marking it out, which starts recovery — the bulk of the paper's
	// "system checking period".
	MarkOutInterval simclock.Time

	// Peering costs within the checking period.
	PeeringRoundTrip    simclock.Time // per acting-set member info exchange
	MissingScanPerChunk simclock.Time // per object-chunk missing-set scan
	// HostCoordination is the extra MON/MGR work per additional failed
	// host (osdmap churn, separate down events).
	HostCoordination simclock.Time

	// RecoveryMaxActive is the per-PG limit of in-flight object repairs
	// (osd_recovery_max_active).
	RecoveryMaxActive int
	// MaxBackfills is the per-OSD recovery reservation limit
	// (osd_max_backfills): a PG must reserve its primary and every
	// recovery target before repairing, which serializes PG recovery the
	// way Ceph does.
	MaxBackfills int
	// RecoveryBWFraction is the share of device bandwidth recovery I/O is
	// allowed to use: Ceph's mClock/wpq scheduling deprioritizes recovery
	// against client I/O headroom.
	RecoveryBWFraction float64
	// RecoveryOpCap bounds the throttling cost of a single recovery op:
	// mclock charges per op, so one very large op saturates at the cap
	// plus its full-bandwidth transfer time instead of paying the
	// throttled rate on every byte.
	RecoveryOpCap simclock.Time
	// IdleBoost is the multiple of RecoveryBWFraction a recovery op may
	// use when it finds the device idle — mclock lets background recovery
	// consume idle headroom up to its limit, above its reservation.
	IdleBoost float64
	// StrideEfficiency is the throughput of strided sub-chunk reads
	// relative to sequential reads (they forfeit read-ahead), eroding
	// Clay's disk-side savings.
	StrideEfficiency float64
	// ColdDataFraction is the share of recovery reads that can ever be
	// served from the data cache; the rest is cold by construction
	// (written long before the failure).
	ColdDataFraction float64
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		DiskReadBW:  240e6,
		DiskWriteBW: 220e6,
		DiskSeek:    1200 * time.Microsecond, // network-attached volume latency
		DiskBlock:   4096,

		PerIOOverhead: 16 * time.Microsecond,
		MetaLookup:    30 * time.Millisecond,

		// Calibrated against BenchmarkKernel* after the word kernels
		// landed (CHANGES.md, PR 2/3):
		// RS(12,9) repair of a 64 KiB shard consumes ~11 source shards in
		// ~273 µs => ~2.1 GB/s of source data through one core; Clay repair
		// at the same size (297 sub-chunk transform/solve ops, 466 µs total)
		// leaves ~1.2 µs of pure CPU per sub-chunk after the bulk GF work.
		// The remaining 8.8 µs of the calibrated 10 µs/sub-chunk total is
		// op overhead the codec bench cannot see (see ClaySubChunkOp).
		DecodeBW:        2.1e9,
		ClaySubChunkCPU: 1200 * time.Nanosecond,
		ClaySubChunkOp:  8800 * time.Nanosecond,

		RepairOpOverhead: 60 * time.Millisecond,

		HeartbeatInterval: 6 * time.Second,
		HeartbeatGrace:    20 * time.Second,
		MarkOutInterval:   600 * time.Second,

		PeeringRoundTrip:    2 * time.Millisecond,
		MissingScanPerChunk: 40 * time.Microsecond,
		HostCoordination:    12 * time.Second,

		RecoveryMaxActive:  10, // osd_recovery_max_active_ssd
		MaxBackfills:       1,
		RecoveryBWFraction: 0.13,
		RecoveryOpCap:      1200 * time.Millisecond,
		IdleBoost:          3,
		StrideEfficiency:   0.35,
		ColdDataFraction:   0.35,
	}
}

// recoveryFraction returns the recovery bandwidth share for one op. A
// busy device grants only the mclock reservation; an idle device lets
// recovery burst up to IdleBoost times the reservation (its limit).
func (cm *CostModel) recoveryFraction(deviceIdle bool) float64 {
	f := cm.RecoveryBWFraction
	if f <= 0 || f > 1 {
		return 1
	}
	if deviceIdle && cm.IdleBoost > 1 {
		f *= cm.IdleBoost
		if f > 1 {
			f = 1
		}
	}
	return f
}

// throttledTime charges bytes at the recovery-priority rate, capped at
// RecoveryOpCap plus the full-bandwidth transfer time (the per-op mclock
// charge saturating for very large ops).
func (cm *CostModel) throttledTime(bytes int64, fullBW float64, deviceIdle bool) simclock.Time {
	throttled := simclock.Time(float64(bytes) / (fullBW * cm.recoveryFraction(deviceIdle)) * float64(time.Second))
	if cm.RecoveryOpCap > 0 {
		capped := cm.RecoveryOpCap + simclock.Time(float64(bytes)/fullBW*float64(time.Second))
		if capped < throttled {
			return capped
		}
	}
	return throttled
}

// diskReadTime models one helper-side recovery read: ios discrete
// operations over a total of diskBytes, with runs discontiguous extents,
// at the deprioritized recovery bandwidth.
func (cm *CostModel) diskReadTime(diskBytes int64, ios, runs int, deviceIdle bool) simclock.Time {
	t := cm.throttledTime(diskBytes, cm.DiskReadBW, deviceIdle)
	t += simclock.Time(ios) * cm.PerIOOverhead
	t += simclock.Time(runs) * cm.DiskSeek
	return t
}

// diskWriteTime models writing a reconstructed chunk at recovery priority.
func (cm *CostModel) diskWriteTime(bytes int64, deviceIdle bool) simclock.Time {
	t := cm.throttledTime(bytes, cm.DiskWriteBW, deviceIdle)
	return t + cm.PerIOOverhead + cm.DiskSeek
}

// decodeTime models reconstructing lost chunks from srcBytes of helper
// data; subChunks > 1 adds Clay's per-sub-chunk overhead for
// subChunkOps processed sub-chunks.
func (cm *CostModel) decodeTime(srcBytes int64, subChunkOps int64) simclock.Time {
	t := simclock.Time(float64(srcBytes) / cm.DecodeBW * float64(time.Second))
	t += simclock.Time(subChunkOps) * (cm.ClaySubChunkCPU + cm.ClaySubChunkOp)
	return t
}
