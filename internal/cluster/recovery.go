package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/erasure"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

// monitor is the MON/MGR node: it tracks heartbeats, marks OSDs down and
// out, and drives the checking period that precedes EC recovery.
type monitor struct {
	c *Cluster

	epoch       int // osdmap epoch, bumped on every state change
	injectedAt  simclock.Time
	detectedAt  simclock.Time
	failedOSDs  []int
	failedHosts map[string]bool
}

func newMonitor(c *Cluster) *monitor {
	return &monitor{c: c, failedHosts: map[string]bool{}}
}

// InjectOSDFailures schedules the failure of the given OSDs at time at:
// their processes stop and their devices are removed. Detection happens
// after the heartbeat grace elapses, as in Ceph.
func (c *Cluster) InjectOSDFailures(at simclock.Time, ids ...int) {
	if at > c.mon.injectedAt {
		c.mon.injectedAt = at
	}
	for _, id := range ids {
		id := id
		osd := c.osds[id]
		c.mon.failedOSDs = append(c.mon.failedOSDs, id)
		c.mon.failedHosts[osd.Host] = true
		c.sim.At(at, func() {
			osd.up = false
			osd.Store.Device().Remove()
			c.log(c.sim.Now(), osd.Host, fmt.Sprintf("osd.%d device removed (fault injected)", id))
		})
	}
	// Detection: the next heartbeat round after the grace expires.
	detect := at + heartbeatGrace + heartbeatInterval/2
	if detect > c.mon.detectedAt {
		c.mon.detectedAt = detect
	}
	for _, id := range ids {
		id := id
		c.sim.At(detect, func() {
			c.crush.SetOut(id, true)
			c.mon.epoch++
			c.log(c.sim.Now(), "mon0", fmt.Sprintf("osdmap e%d: osd.%d failure detected: no heartbeat for %v, marked down", c.mon.epoch, id, heartbeatGrace))
		})
	}
}

// FailHost fails every OSD on a host at time at (node-level fault).
func (c *Cluster) FailHost(at simclock.Time, host string) {
	c.InjectOSDFailures(at, c.crush.OSDsOnHost(host)...)
}

// RecoveryResult captures the timeline and volume of one recovery cycle.
type RecoveryResult struct {
	InjectedAt      simclock.Time
	DetectedAt      simclock.Time
	RecoveryStartAt simclock.Time
	FinishedAt      simclock.Time

	DegradedPGs    int
	RepairedChunks int
	ObjectRepairs  int

	HelperDiskBytes int64 // bytes read from surviving OSD devices
	NetworkBytes    int64 // repair bytes moved between hosts
	WrittenBytes    int64 // reconstructed bytes written

	// FullDecodeObjects counts repairs that lost >1 chunk and (for Clay)
	// fell back to full decode.
	FullDecodeObjects int
}

// SystemRecoveryTime is detection to completion — the paper's "system
// recovery period".
func (r *RecoveryResult) SystemRecoveryTime() simclock.Time {
	return r.FinishedAt - r.DetectedAt
}

// CheckingPeriod is detection to the start of EC recovery I/O.
func (r *RecoveryResult) CheckingPeriod() simclock.Time {
	return r.RecoveryStartAt - r.DetectedAt
}

// ECRecoveryPeriod is the EC recovery I/O phase.
func (r *RecoveryResult) ECRecoveryPeriod() simclock.Time {
	return r.FinishedAt - r.RecoveryStartAt
}

// CheckingFraction is the checking period share of the whole cycle.
func (r *RecoveryResult) CheckingFraction() float64 {
	total := r.SystemRecoveryTime()
	if total <= 0 {
		return 0
	}
	return float64(r.CheckingPeriod()) / float64(total)
}

// RecoverPool runs the full recovery cycle of a pool after failures have
// been injected with InjectOSDFailures, driving the simulation to
// completion and returning the measured result.
func (c *Cluster) RecoverPool(poolName string) (*RecoveryResult, error) {
	res, err := c.ScheduleRecovery(poolName)
	if err != nil {
		return nil, err
	}
	c.RunSim()
	if res.FinishedAt == 0 {
		return nil, fmt.Errorf("cluster: recovery did not complete")
	}
	return res, nil
}

// ScheduleRecovery sets up the whole recovery cycle on the simulator and
// returns the result record, which is filled in as the simulation runs.
// Callers that need to interleave their own periodic events (iostat
// sampling, log flushing) schedule them against Sim() and then call
// Sim().Run() themselves; RecoverPool wraps both steps.
func (c *Cluster) ScheduleRecovery(poolName string) (*RecoveryResult, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	mon := c.mon
	if len(mon.failedOSDs) == 0 {
		return nil, fmt.Errorf("cluster: no failures injected")
	}
	res := &RecoveryResult{InjectedAt: mon.injectedAt, DetectedAt: mon.detectedAt}

	// The checking period: mark-out countdown plus per-extra-host
	// coordination, during which the MGR exchanges heartbeats and OSDs
	// peer and compute missing sets.
	extraHosts := max(len(mon.failedHosts)-1, 0)
	res.RecoveryStartAt = mon.detectedAt + c.cfg.Tuning.MarkOutInterval + simclock.Time(extraHosts)*hostCoordination

	// Heartbeat chatter during the checking window (Figure 3's "MGR log:
	// receiving heartbeats").
	for t := mon.detectedAt; t < res.RecoveryStartAt; t += 10 * heartbeatInterval {
		t := t
		c.sim.At(t, func() {
			c.log(t, "mon0", "receiving heartbeats from osd peers")
		})
	}

	down := map[int]bool{}
	for _, id := range mon.failedOSDs {
		down[id] = true
	}

	// Identify degraded PGs and their lost shard positions.
	type pgWork struct {
		pg      *PG
		lostIdx []int
		primary int
		targets []int
		plan    *erasure.Plan
	}
	var work []*pgWork
	var emptyRemaps []*PG
	for _, pg := range pool.PGs {
		var lost []int
		for i, id := range pg.Acting {
			if down[id] {
				lost = append(lost, i)
			}
		}
		if len(lost) == 0 {
			continue
		}
		if len(pg.Objects) == 0 {
			// No data to move: the PG just remaps to live OSDs when the
			// failed ones are marked out.
			emptyRemaps = append(emptyRemaps, pg)
			continue
		}
		if !erasure.CanRecover(pool.Code, lost) {
			return nil, fmt.Errorf("cluster: pg %d lost chunks %v, beyond the code's fault tolerance", pg.ID, lost)
		}
		primary := c.primaryOf(pg, down)
		if primary == -1 {
			return nil, fmt.Errorf("cluster: pg %d has no surviving member", pg.ID)
		}
		plan, err := pool.Code.RepairPlan(lost)
		if err != nil {
			return nil, err
		}
		work = append(work, &pgWork{pg: pg, lostIdx: lost, primary: primary, plan: plan})
	}
	res.DegradedPGs = len(work)
	sort.Slice(work, func(i, j int) bool { return work[i].pg.ID < work[j].pg.ID })

	// Pick recovery targets: re-run CRUSH with the failed OSDs out. The
	// out-marking is applied eagerly here (the scheduled detection events
	// set it again, idempotently) so target selection sees the post-failure
	// map.
	for _, id := range mon.failedOSDs {
		c.crush.SetOut(id, true)
	}
	for _, w := range work {
		// When the failure consumed a whole failure domain there may be
		// too few domains left for a clean re-selection; Ceph remaps such
		// PGs degraded across the remaining domains, which the sweep
		// below reproduces.
		newActing, err := c.crush.Select(pool.pgSeed(w.pg.ID), pool.Code.N(), pool.FailureDomain)
		if err != nil {
			newActing = nil
		}
		var candidates []int
		for _, id := range newActing {
			if !slices.Contains(w.pg.Acting, id) && !down[id] {
				candidates = append(candidates, id)
			}
		}
		for ci := 0; len(candidates) < len(w.lostIdx); ci++ {
			// Fallback: deterministic sweep for any live OSD not in the set.
			if ci >= len(c.osds) {
				return nil, fmt.Errorf("cluster: no recovery target for pg %d", w.pg.ID)
			}
			if !slices.Contains(w.pg.Acting, ci) && !down[ci] && !slices.Contains(candidates, ci) {
				candidates = append(candidates, ci)
			}
		}
		w.targets = candidates[:len(w.lostIdx)]
	}

	// Tell every store how much data recovery will read from it, so the
	// cache model can size the hot set (drives the Fig. 2a effect).
	readPerOSD := map[int]int64{}
	for _, w := range work {
		// Per-object share of the plan's read bytes, summed once and then
		// credited to every helper — same integer arithmetic as the old
		// objects x helpers double loop (each object contributed
		// BytesRead/len(helpers), rounded down, to each helper), without
		// re-walking the helper list per object.
		var perHelper int64
		var lastSize, lastShare int64 = -1, 0
		for _, o := range w.pg.Objects {
			if o.ChunkSize != lastSize {
				lastSize = o.ChunkSize
				lastShare = w.plan.BytesRead(o.ChunkSize) / int64(len(w.plan.Helpers))
			}
			perHelper += lastShare
		}
		for _, h := range w.plan.Helpers {
			readPerOSD[w.pg.Acting[h.Shard]] += perHelper
		}
	}
	for id, bytes := range readPerOSD {
		c.osds[id].Store.SetDataWorkingSet(bytes)
	}
	// Each target receives one chunk per object of every PG it repairs:
	// size its overlay for them once instead of growing it write by write.
	targetChunks := make([]int, len(c.osds))
	for _, w := range work {
		for _, id := range w.targets {
			targetChunks[id] += len(w.pg.Objects)
		}
	}
	for id, n := range targetChunks {
		if n == 0 {
			continue
		}
		if err := c.osds[id].Store.Reserve(n); err != nil {
			return nil, fmt.Errorf("cluster: recovery target osd.%d: %w", id, err)
		}
	}

	// Peering during the checking window: each degraded PG's primary
	// exchanges infos and scans for missing objects.
	peerDone := simclock.NewJoin(len(work), nil)
	for _, w := range work {
		w := w
		c.sim.At(mon.detectedAt, func() {
			primary := c.osds[w.primary]
			alive := 0
			for _, id := range w.pg.Acting {
				if !down[id] {
					alive++
				}
			}
			scan := simclock.Time(len(w.pg.Objects)*len(w.lostIdx)) * missingScanPerChunk
			service := simclock.Time(alive)*peeringRoundTrip + scan
			c.log(c.sim.Now(), primary.Host, fmt.Sprintf("pg %d peering: check recovery resource", w.pg.ID))
			primary.cpu.Submit(service, func() {
				c.log(c.sim.Now(), primary.Host, fmt.Sprintf("pg %d collecting missing OSDs, queueing recovery (%d objects)", w.pg.ID, len(w.pg.Objects)))
				peerDone.Done()
			})
		})
	}

	// The EC recovery phase. With no degraded PG there is nothing to wait
	// for: the cycle completes the instant the failure is detected (a Join
	// of zero would fire now, before the clock starts).
	allDone := simclock.NewJoin(max(len(work), 1), func() {
		res.FinishedAt = c.sim.Now()
		c.log(c.sim.Now(), "mon0", "recovery completed: all placement groups active+clean")
	})
	if len(work) == 0 {
		c.sim.At(mon.detectedAt, allDone.Done)
	}
	c.sim.At(res.RecoveryStartAt, func() {
		mon.epoch++
		c.log(c.sim.Now(), "mon0", fmt.Sprintf("osdmap e%d: marking %d osds out, start recovery I/O", mon.epoch, len(mon.failedOSDs)))
		for _, pg := range emptyRemaps {
			newActing, err := c.crush.Select(pool.pgSeed(pg.ID), pool.Code.N(), pool.FailureDomain)
			if err != nil {
				continue // stays degraded; surfaced via Health
			}
			copy(pg.Acting, newActing)
		}
		for _, w := range work {
			w := w
			// A PG reserves its primary and every recovery target before
			// repairing (osd_max_backfills); reservations are acquired in
			// OSD-id order so concurrent PGs cannot deadlock.
			resources := reservationOrder(w.primary, w.targets)
			var acquire func(i int)
			acquire = func(i int) {
				if i == len(resources) {
					c.startPGRecovery(pool, w.pg, w.lostIdx, w.primary, w.targets, w.plan, res, func() {
						for j := len(resources) - 1; j >= 0; j-- {
							c.osds[resources[j]].reserve.Release()
						}
						c.log(c.sim.Now(), c.osds[w.primary].Host, fmt.Sprintf("pg %d recovery completed", w.pg.ID))
						allDone.Done()
					})
					return
				}
				c.osds[resources[i]].reserve.Acquire(func() { acquire(i + 1) })
			}
			acquire(0)
		}
	})

	// Periodic MGR recovery reports while recovery runs.
	var report func()
	report = func() {
		if res.FinishedAt != 0 {
			return
		}
		c.log(c.sim.Now(), "mon0", fmt.Sprintf("report recovery I/O: %d objects repaired", res.ObjectRepairs))
		c.sim.After(60*time.Second, report)
	}
	c.sim.At(res.RecoveryStartAt, func() { c.sim.After(60*time.Second, report) })

	if len(work) == 0 {
		res.RecoveryStartAt = mon.detectedAt
		res.FinishedAt = mon.detectedAt
	}
	return res, nil
}

// Done reports whether the recovery cycle has completed.
func (r *RecoveryResult) Done() bool { return r.FinishedAt != 0 }

// helperIO describes one helper's read work for an object repair.
type helperIO struct {
	osd       int
	diskBytes int64 // bytes the device must move (after stride coalescing)
	netBytes  int64 // bytes shipped to the primary
	ios       int
	runs      int
	strided   bool // discontiguous sub-chunk reads (no read-ahead benefit)
}

// planHelperIO converts a repair plan into per-helper disk and network
// quantities for a chunk of the given size. The code is applied per stripe
// unit (the encoding unit, as in Ceph), so a chunk of u units incurs the
// plan's sub-chunk pattern u times with sub-chunks of stripe_unit/alpha
// bytes. Sub-chunks smaller than the disk block coalesce into whole-range
// reads (the read-ahead effect that erodes Clay's disk savings), while the
// network still ships only the planned bytes.
func (c *Cluster) planHelperIO(pool *Pool, pg *PG, plan *erasure.Plan, chunkSize int64) []helperIO {
	alpha := int64(plan.SubChunkTotal)
	unit := pool.StripeUnit
	units := max((chunkSize+unit-1)/unit, 1)
	subBytes := max(unit/alpha, 1)
	out := make([]helperIO, 0, len(plan.Helpers))
	for _, h := range plan.Helpers {
		perUnitNet := int64(len(h.SubChunks)) * unit / alpha
		var hio helperIO
		hio.osd = pg.Acting[h.Shard]
		hio.netBytes = units * perUnitNet
		switch {
		case int64(len(h.SubChunks)) == alpha:
			// Whole chunk: one sequential read.
			hio.diskBytes = chunkSize
			hio.ios = 1
			hio.runs = 1
		case subBytes < diskBlock:
			// Strided sub-chunks below block granularity coalesce into a
			// whole-range read: the device moves the full chunk even
			// though the network ships only the planned bytes.
			hio.diskBytes = chunkSize
			hio.ios = max(int((chunkSize+diskBlock-1)/diskBlock/64), 1) // batched requests
			hio.runs = 1
		default:
			hio.diskBytes = hio.netBytes
			hio.ios = int(units) * h.Runs
			hio.runs = int(units) * h.Runs
			hio.strided = true
		}
		out = append(out, hio)
	}
	return out
}

// pgRecovery drives one PG's object repairs. Every stage of the pipeline
// — helper read, ship to primary, decode, ship to target, target write —
// is a fixed-arg simulator event whose argument is a pooled node, so
// steady-state repair schedules events without allocating. The scheduling
// order matches the earlier closure-based pipeline call for call, which
// is what keeps RecoveryResult timelines bit-identical across the engine
// rewrite.
type pgRecovery struct {
	c       *Cluster
	pool    *Pool
	pg      *PG
	lostIdx []int
	targets []int
	plan    *erasure.Plan
	primary *OSD
	res     *RecoveryResult
	done    func()

	next     int
	inFlight int

	// hios/units are the per-helper IO plan for hioChunkSize, computed
	// once per PG and reused while objects keep that size (the common
	// uniform-workload case), instead of re-planned per object.
	hioChunkSize int64
	hios         []helperIO
	units        int64
}

// objRepair is one in-flight object repair; helperRead and chunkWrite are
// its per-helper and per-lost-chunk legs. All three recycle through
// cluster-level freelists.
type objRepair struct {
	pr         *pgRecovery
	obj        *ObjectRecord
	units      int64
	srcBytes   int64
	helpers    simnet.Gather // the helper ships converging on the primary
	writesLeft int
	next       *objRepair
}

type helperRead struct {
	or   *objRepair
	hio  *helperIO
	next *helperRead
}

type chunkWrite struct {
	or   *objRepair
	li   int // index into pr.lostIdx / pr.targets
	next *chunkWrite
}

func (c *Cluster) newObjRepair() *objRepair {
	if or := c.freeObjs; or != nil {
		c.freeObjs = or.next
		or.next = nil
		return or
	}
	return &objRepair{}
}

func (c *Cluster) freeObjRepair(or *objRepair) {
	*or = objRepair{next: c.freeObjs}
	c.freeObjs = or
}

func (c *Cluster) newHelperRead() *helperRead {
	if hr := c.freeReads; hr != nil {
		c.freeReads = hr.next
		hr.next = nil
		return hr
	}
	return &helperRead{}
}

func (c *Cluster) freeHelperRead(hr *helperRead) {
	*hr = helperRead{next: c.freeReads}
	c.freeReads = hr
}

func (c *Cluster) newChunkWrite() *chunkWrite {
	if w := c.freeWrites; w != nil {
		c.freeWrites = w.next
		w.next = nil
		return w
	}
	return &chunkWrite{}
}

func (c *Cluster) freeChunkWrite(w *chunkWrite) {
	*w = chunkWrite{next: c.freeWrites}
	c.freeWrites = w
}

// startPGRecovery pumps the PG's missing objects through the repair
// pipeline with the configured recovery concurrency.
func (c *Cluster) startPGRecovery(pool *Pool, pg *PG, lostIdx []int, primaryID int, targets []int, plan *erasure.Plan, res *RecoveryResult, done func()) {
	primary := c.osds[primaryID]
	c.log(c.sim.Now(), primary.Host, fmt.Sprintf("pg %d start recovery I/O (%d objects, %d lost chunks each)", pg.ID, len(pg.Objects), len(lostIdx)))
	pr := &pgRecovery{
		c: c, pool: pool, pg: pg,
		lostIdx: lostIdx, targets: targets, plan: plan,
		primary: primary, res: res, done: done,
	}
	pr.pump()
}

func (pr *pgRecovery) pump() {
	for pr.inFlight < pr.c.cfg.Tuning.RecoveryMaxActive && pr.next < len(pr.pg.Objects) {
		obj := pr.pg.Objects[pr.next]
		pr.next++
		pr.inFlight++
		pr.repair(obj)
	}
	if pr.inFlight == 0 && pr.next >= len(pr.pg.Objects) {
		// Update the acting set: targets take over the lost slots.
		for li, lost := range pr.lostIdx {
			pr.pg.Acting[lost] = pr.targets[li]
		}
		pr.done()
	}
}

// hiosFor returns the per-helper IO plan for a chunk size, re-planning
// only when the size differs from the cached one.
func (pr *pgRecovery) hiosFor(chunkSize int64) []helperIO {
	if pr.hios == nil || chunkSize != pr.hioChunkSize {
		pr.hios = pr.c.planHelperIO(pr.pool, pr.pg, pr.plan, chunkSize)
		pr.hioChunkSize = chunkSize
		pr.units = max((chunkSize+pr.pool.StripeUnit-1)/pr.pool.StripeUnit, 1)
	}
	return pr.hios
}

func (pr *pgRecovery) repair(obj *ObjectRecord) {
	c := pr.c
	hios := pr.hiosFor(obj.ChunkSize)
	or := c.newObjRepair()
	or.pr, or.obj, or.units = pr, obj, pr.units
	if len(hios) == 0 {
		or.decode()
		return
	}
	// Every helper is announced to the gather here; the first ships from
	// helperReadDone, an event later at the earliest.
	or.helpers.Reset(pr.primary.nic, helpersArrived, or)
	for i := range hios {
		hio := &hios[i]
		helper := c.osds[hio.osd]
		or.helpers.Expect(helper.nic)
		hMetaHit, hKVHit, hDataHit := helper.Store.AccessProfile()
		missFrac := 1 - (hMetaHit+hKVHit)/2
		effBytes := int64(float64(hio.diskBytes) * (1 - hDataHit*coldDataFraction))
		if hio.strided {
			// Strided reads forfeit read-ahead: the device spends
			// sequential-equivalent time moving fewer bytes.
			effBytes = int64(float64(effBytes) / strideEfficiency)
		}
		idle := helper.disk.InFlight() == 0 && helper.disk.QueueLen() == 0
		service := simclock.Time(float64(metaLookup)*missFrac) + c.cfg.Tuning.diskReadTime(effBytes, hio.ios, hio.runs, idle)
		hr := c.newHelperRead()
		hr.or, hr.hio = or, hio
		helper.disk.SubmitArg(service, helperReadDone, hr)
	}
}

// helperReadDone fires when a helper's disk read completes: account the
// device traffic and ship the planned bytes to the primary. The ship is a
// member of the object's gather, so nothing of the helper's leg outlives
// this event and NetworkBytes, which is read only after the run, is
// charged here.
func helperReadDone(a any) {
	hr := a.(*helperRead)
	or := hr.or
	pr := or.pr
	hio := hr.hio
	pr.c.freeHelperRead(hr)
	helper := pr.c.osds[hio.osd]
	// Device-level accounting of the sub-chunk reads.
	_ = helper.Store.Device().AccountRead(hio.diskBytes)
	pr.res.HelperDiskBytes += hio.diskBytes
	pr.res.NetworkBytes += hio.netBytes
	or.srcBytes += hio.netBytes
	pr.c.net.Ship(&or.helpers, helper.nic, hio.netBytes)
}

// helpersArrived fires once per object, when the last helper's bytes
// have reached the primary.
func helpersArrived(a any) { a.(*objRepair).decode() }

// decode schedules the primary's reconstruction once every helper's bytes
// have arrived. Sub-chunk transforms per decode: the plan's pattern
// repeats once per encoding unit.
func (or *objRepair) decode() {
	pr := or.pr
	subOps := or.units * int64(pr.plan.SubChunksRead())
	service := decodeTime(or.srcBytes, subOps) + repairOpOverhead
	pr.primary.cpu.SubmitArg(service, decodeDone, or)
}

func decodeDone(a any) {
	or := a.(*objRepair)
	pr := or.pr
	c := pr.c
	obj := or.obj
	// Reconstruct real bytes when the object has payload.
	if obj.Payload {
		if err := c.repairPayload(pr.pool, pr.pg, obj, pr.lostIdx, pr.targets); err != nil {
			c.log(c.sim.Now(), pr.primary.Host, fmt.Sprintf("pg %d object %s payload repair failed: %v", pr.pg.ID, obj.Name, err))
		}
	}
	or.writesLeft = len(pr.lostIdx)
	for li := range pr.lostIdx {
		target := c.osds[pr.targets[li]]
		w := c.newChunkWrite()
		w.or, w.li = or, li
		c.net.Send(pr.primary.nic, target.nic, obj.ChunkSize, writeShipDone, w)
	}
}

func writeShipDone(a any) {
	w := a.(*chunkWrite)
	or := w.or
	pr := or.pr
	target := pr.c.osds[pr.targets[w.li]]
	idle := target.disk.InFlight() == 0 && target.disk.QueueLen() == 0
	target.disk.SubmitArg(pr.c.cfg.Tuning.diskWriteTime(or.obj.ChunkSize, idle), writeDiskDone, w)
}

func writeDiskDone(a any) {
	w := a.(*chunkWrite)
	or := w.or
	pr := or.pr
	c := pr.c
	obj := or.obj
	target := c.osds[pr.targets[w.li]]
	if !obj.Payload {
		id := pr.pool.chunkID(pr.pg, obj.Name, pr.lostIdx[w.li])
		share := obj.Size / int64(pr.pool.Code.N())
		if err := target.Store.WriteChunk(id, obj.ChunkSize, share, nil); err != nil {
			c.log(c.sim.Now(), target.Host, fmt.Sprintf("recovery write failed: %v", err))
		}
	}
	pr.res.WrittenBytes += obj.ChunkSize
	c.freeChunkWrite(w)
	or.writesLeft--
	if or.writesLeft == 0 {
		or.finish()
	}
}

func (or *objRepair) finish() {
	pr := or.pr
	pr.res.ObjectRepairs++
	pr.res.RepairedChunks += len(pr.lostIdx)
	if len(pr.lostIdx) > 1 {
		pr.res.FullDecodeObjects++
	}
	pr.c.freeObjRepair(or)
	pr.inFlight--
	pr.pump()
}

// reservationOrder returns the unique OSDs a PG must reserve, sorted by
// id (the global acquisition order that prevents deadlock).
func reservationOrder(primary int, targets []int) []int {
	seen := map[int]bool{primary: true}
	out := []int{primary}
	for _, t := range targets {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

// repairPayload reconstructs the real bytes of an object's lost chunks and
// stores them on the target OSDs.
func (c *Cluster) repairPayload(pool *Pool, pg *PG, obj *ObjectRecord, lostIdx []int, targets []int) error {
	code := pool.Code
	shards, _ := c.survivingShards(pool, pg, obj.Name, lostIdx)
	if err := code.Repair(shards, lostIdx); err != nil {
		return err
	}
	share := obj.Size / int64(code.N())
	for li, l := range lostIdx {
		target := c.osds[targets[li]]
		if err := target.Store.WriteChunk(pool.chunkID(pg, obj.Name, l), obj.ChunkSize, share, shards[l]); err != nil {
			return err
		}
	}
	return nil
}
