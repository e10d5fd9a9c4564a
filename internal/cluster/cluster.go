// Package cluster simulates a Ceph-like erasure-coded distributed storage
// system: a MON/MGR node plus OSD hosts, CRUSH placement of placement
// groups, a BlueStore-like backend per OSD, heartbeat-based failure
// detection, the down->out checking period, and an EC recovery engine that
// charges disk, network and CPU time through a discrete-event simulator.
//
// Erasure coding is executed for real when objects carry payloads; large
// synthetic workloads run in accounting mode where only sizes flow, so the
// paper-scale experiments (10,000 x 64 MB) complete in seconds of wall
// time while producing faithful recovery timelines and storage usage.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/bluestore"
	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/erasure/codecache"

	// Load the erasure-code plugins, as Ceph loads its EC plugin shared
	// objects.
	_ "repro/internal/erasure/clay"
	_ "repro/internal/erasure/lrc"
	_ "repro/internal/erasure/reedsolomon"
	_ "repro/internal/erasure/shec"

	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/wamodel"
	"repro/internal/workload"
)

// Errors.
var (
	ErrNoPool       = errors.New("cluster: no such pool")
	ErrNoObject     = errors.New("cluster: no such object")
	ErrObjectExists = errors.New("cluster: object exists")
	ErrPoolExists   = errors.New("cluster: pool exists")
	ErrBadGeometry  = errors.New("cluster: invalid cluster geometry")
)

// LogFunc receives framework log lines (simulated time, node, message).
type LogFunc func(t simclock.Time, node, msg string)

// Config describes the cluster under test.
type Config struct {
	Hosts          int
	OSDsPerHost    int
	DeviceCapacity int64
	// Racks, when > 0, distributes hosts round-robin over that many rack
	// buckets so pools can use the "rack" failure domain.
	Racks int
	Net   simnet.Config
	Store bluestore.Config
	// Tuning holds the recovery settings a profile may set; zero fields
	// take Ceph's defaults.
	Tuning Tuning
	// Log, if set, receives all node log lines.
	Log LogFunc
}

// DefaultConfig mirrors the paper's testbed shape: 30 OSD hosts with two
// 100 GB NVMe volumes each, plus one MON/MGR host.
func DefaultConfig() Config {
	return Config{
		Hosts:          30,
		OSDsPerHost:    2,
		DeviceCapacity: 100 << 30,
		Net:            simnet.DefaultConfig(),
		Store:          bluestore.DefaultConfig(),
	}
}

// OSD is one object storage daemon bound to one device.
type OSD struct {
	ID    int
	Host  string
	Store *bluestore.Store

	up bool // process alive

	nic *simnet.Host // the host's NIC, resolved once at construction

	disk    *simclock.Queue     // device service queue
	cpu     *simclock.Queue     // decode/peering CPU
	reserve *simclock.Semaphore // recovery/backfill reservations (osd_max_backfills)
}

// ObjectRecord tracks one stored object within a PG. Records are
// immutable once published: bulk-loaded ones are shared with the stores'
// base runs and with every snapshot fork.
type ObjectRecord = bluestore.ObjectRecord

// PG is a placement group: an ordered acting set of OSDs holding one
// chunk each for every object mapped to the group.
type PG struct {
	ID     int
	Acting []int
	// Objects is the PG's records in load order. A bulk load into an
	// empty PG makes it the load's BulkPG table itself, capacity clipped,
	// so a later append copies instead of writing into shared records. A
	// pointer into it is valid until the next WriteObject or BulkLoad on
	// the PG.
	Objects []ObjectRecord
	// bulk is the record of the objects the PG's last bulk load gave it,
	// nil when none did: recovery declares it on each target.
	bulk *bluestore.BulkPG
}

// Pool is an erasure-coded pool: the normalized config it was created
// with (Snapshot/Fork rebuild the pool from it without re-running CRUSH),
// its code and its placement groups.
type Pool struct {
	PoolConfig
	Code erasure.Code
	PGs  []*PG
}

// PoolConfig parameterizes CreatePool.
type PoolConfig struct {
	Name          string
	Plugin        string // erasure plugin name, e.g. "jerasure_reed_sol_van", "clay"
	K, M, D       int
	PGNum         int
	StripeUnit    int64
	FailureDomain string // "osd", "host", or "rack"
}

// Normalize resolves the config's zero-value defaults: a 4 KiB stripe
// unit, the host failure domain, and the plugin's registered default D.
// Two configs that create the same pool normalize to equal values.
func (pc PoolConfig) Normalize() PoolConfig {
	if pc.StripeUnit <= 0 {
		pc.StripeUnit = 4096
	}
	if pc.FailureDomain == "" {
		pc.FailureDomain = crush.TypeHost
	}
	pc.D = erasure.ResolveD(pc.Plugin, pc.K, pc.M, pc.D)
	return pc
}

// newPool builds a pool without placement groups from a normalized config.
// Codes come from the process-wide registry: constructions are immutable
// and their derived-artifact caches are concurrency-safe, so pools with
// the same spec — across clusters and snapshot forks — share one instance
// and its compiled programs and plans.
func newPool(pc PoolConfig) (*Pool, error) {
	code, err := codecache.Get(pc.Plugin, pc.K, pc.M, pc.D)
	if err != nil {
		return nil, err
	}
	return &Pool{PoolConfig: pc, Code: code}, nil
}

// pgSeed is the CRUSH placement seed of one of the pool's PGs, at creation
// and at every remap after a failure.
func (p *Pool) pgSeed(pg int) uint64 {
	return crush.NameKey(p.Name) ^ uint64(pg)*0x9e3779b97f4a7c15
}

// Cluster is the simulated DSS.
type Cluster struct {
	cfg   Config
	sim   *simclock.Sim
	net   *simnet.Network
	crush *crush.Map
	osds  []*OSD
	pools map[string]*Pool
	log   LogFunc

	mon *monitor

	// freeObjs is the freelist of object-repair records (see recovery.go).
	freeObjs *objRepair
}

// New builds the cluster topology with fresh empty stores.
func New(cfg Config) (*Cluster, error) {
	return build(cfg, func(cfg Config, id int) (*bluestore.Store, error) {
		dev, err := blockdev.New(cfg.DeviceCapacity)
		if err != nil {
			return nil, err
		}
		return bluestore.Open(dev, cfg.Store), nil
	})
}

// normalizeClusterConfig applies the zero-value defaults New documents.
func normalizeClusterConfig(cfg Config) (Config, error) {
	if cfg.Hosts <= 0 || cfg.OSDsPerHost <= 0 {
		return cfg, fmt.Errorf("%w: hosts=%d osdsPerHost=%d", ErrBadGeometry, cfg.Hosts, cfg.OSDsPerHost)
	}
	if cfg.DeviceCapacity <= 0 {
		cfg.DeviceCapacity = DefaultConfig().DeviceCapacity
	}
	if cfg.Net.BandwidthBytesPerSec == 0 {
		cfg.Net = simnet.DefaultConfig()
	}
	cfg.Tuning = cfg.Tuning.Normalize()
	return cfg, nil
}

// build constructs the cluster skeleton — simulator, network, CRUSH map,
// OSD queues — and asks mkStore for each OSD's object store, so New can
// create empty stores and Snapshot.Fork can supply copy-on-write forks.
func build(cfg Config, mkStore func(cfg Config, id int) (*bluestore.Store, error)) (*Cluster, error) {
	cfg, err := normalizeClusterConfig(cfg)
	if err != nil {
		return nil, err
	}
	sim := simclock.New()
	net := simnet.New(sim, cfg.Net)
	log := cfg.Log
	if log == nil {
		log = func(simclock.Time, string, string) {}
	}

	b := crush.NewBuilder()
	c := &Cluster{
		cfg:   cfg,
		sim:   sim,
		net:   net,
		pools: map[string]*Pool{},
		log:   log,
	}
	for r := 0; r < cfg.Racks; r++ {
		if err := b.AddRack(fmt.Sprintf("rack%02d", r)); err != nil {
			return nil, err
		}
	}
	for h := 0; h < cfg.Hosts; h++ {
		host := fmt.Sprintf("host%02d", h)
		rack := ""
		if cfg.Racks > 0 {
			rack = fmt.Sprintf("rack%02d", h%cfg.Racks)
		}
		if err := b.AddHost(host, rack); err != nil {
			return nil, err
		}
		nic := net.AddHost()
		for d := 0; d < cfg.OSDsPerHost; d++ {
			id, err := b.AddOSD(host, 1.0)
			if err != nil {
				return nil, err
			}
			store, err := mkStore(cfg, id)
			if err != nil {
				return nil, err
			}
			osd := &OSD{
				ID:      id,
				Host:    host,
				Store:   store,
				up:      true,
				nic:     nic,
				disk:    sim.NewQueue(1),
				cpu:     sim.NewQueue(1),
				reserve: sim.NewSemaphore(cfg.Tuning.MaxBackfills),
			}
			c.osds = append(c.osds, osd)
		}
	}
	c.crush = b.Build()
	c.mon = newMonitor(c)
	return c, nil
}

// Sim exposes the simulator (for schedulers and tests).
func (c *Cluster) Sim() *simclock.Sim { return c.sim }

// RunSim drives the simulation to completion and returns the final
// simulated time. The records of the repairs that finished go on to the
// next run's cluster.
func (c *Cluster) RunSim() simclock.Time {
	t := c.sim.Run()
	if c.freeObjs != nil {
		spareRepairs.Put(c.freeObjs)
		c.freeObjs = nil
	}
	return t
}

// Crush exposes the placement map.
func (c *Cluster) Crush() *crush.Map { return c.crush }

// OSDs returns all OSDs.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// Pool returns a pool by name.
func (c *Cluster) Pool(name string) (*Pool, error) {
	p, ok := c.pools[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPool, name)
	}
	return p, nil
}

// CreatePool creates an erasure-coded pool and maps its placement groups.
func (c *Cluster) CreatePool(pc PoolConfig) (*Pool, error) {
	if _, dup := c.pools[pc.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrPoolExists, pc.Name)
	}
	if pc.PGNum <= 0 {
		return nil, fmt.Errorf("cluster: pool %q needs pg_num >= 1", pc.Name)
	}
	pc = pc.Normalize()
	pool, err := newPool(pc)
	if err != nil {
		return nil, err
	}
	for pg := 0; pg < pc.PGNum; pg++ {
		acting, err := c.crush.Select(pool.pgSeed(pg), pool.Code.N(), pc.FailureDomain)
		if err != nil {
			return nil, fmt.Errorf("cluster: mapping pg %d: %w", pg, err)
		}
		pool.PGs = append(pool.PGs, &PG{ID: pg, Acting: acting})
	}
	c.pools[pc.Name] = pool
	c.log(c.sim.Now(), "mon0", fmt.Sprintf("pool %s created: plugin=%s k=%d m=%d pg_num=%d stripe_unit=%d", pc.Name, pc.Plugin, pc.K, pc.M, pc.PGNum, pc.StripeUnit))
	return pool, nil
}

// pgOf maps an object name to its placement group.
func (p *Pool) pgOf(name string) *PG {
	return p.PGs[crush.NameKey(name)%uint64(p.PGNum)]
}

// chunkID is the identity of one shard of an object on its OSD.
func (p *Pool) chunkID(pg *PG, object string, shard int) bluestore.ChunkID {
	return bluestore.ChunkID{Pool: p.Name, PG: pg.ID, Object: object, Shard: shard}
}

// storedChunkSize returns the on-disk chunk size for an object: the
// division-and-padding formula, rounded up so payload-mode shards divide
// evenly by the code's sub-chunk count.
func (p *Pool) storedChunkSize(objectSize int64, payload bool) (int64, error) {
	cs, err := wamodel.ChunkSize(objectSize, p.Code.K(), p.StripeUnit)
	if err != nil {
		return 0, err
	}
	if payload {
		alpha := int64(p.Code.SubChunks())
		cs = (cs + alpha - 1) / alpha * alpha
	}
	return cs, nil
}

// BulkLoad ingests a synthetic workload into a pool without payload bytes
// or simulated time: the steady state before the experiment's fault. Each
// PG's new objects reach each acting OSD as one base run over one shared
// slab of records, so the load costs O(PGs x n) store calls and no
// per-chunk state. Each PG's records are a name-ordered table (see
// bluestore.NewBulkPG), so the objects of a PG must come in strictly
// increasing name order, as workload.Spec.Objects makes them: one out of
// order is refused, and one whose name the load repeats or the pool
// already holds with ErrObjectExists. It is all-or-nothing: when any
// object or store is refused, nothing is written and no object is
// recorded.
func (c *Cluster) BulkLoad(poolName string, objs []workload.Object) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	// Group the records by PG, load order kept within a PG: PG i owns
	// records[starts[i]:starts[i+1]].
	starts := make([]int, pool.PGNum+1)
	for i := range objs {
		starts[pool.pgOf(objs[i].Name).ID+1]++
	}
	for i := 0; i < pool.PGNum; i++ {
		starts[i+1] += starts[i]
	}
	records := make([]ObjectRecord, len(objs))
	next := slices.Clone(starts[:pool.PGNum])
	for i := range objs {
		o := &objs[i]
		cs, err := pool.storedChunkSize(o.Size, false)
		if err != nil {
			return err
		}
		pg := pool.pgOf(o.Name).ID
		records[next[pg]] = ObjectRecord{Name: o.Name, Size: o.Size, ChunkSize: cs}
		next[pg]++
	}
	runs := make([]*bluestore.BulkPG, pool.PGNum)
	for _, pg := range pool.PGs {
		lo, hi := starts[pg.ID], starts[pg.ID+1]
		if lo == hi {
			continue
		}
		if runs[pg.ID], err = bluestore.NewBulkPG(pool.Name, pg.ID, pool.Code.N(), records[lo:hi:hi]); err != nil {
			if errors.Is(err, bluestore.ErrRepeatedName) {
				return fmt.Errorf("%w: %s: %w", ErrObjectExists, poolName, err)
			}
			return err
		}
		for i := lo; i < hi && len(pg.Objects) > 0; i++ {
			if _, held := pool.findObject(records[i].Name); held != nil {
				return fmt.Errorf("%w: %s/%s", ErrObjectExists, poolName, records[i].Name)
			}
		}
		for _, osdID := range pg.Acting {
			if err := c.osds[osdID].Store.Writable(); err != nil {
				return fmt.Errorf("cluster: bulk load on osd.%d: %w", osdID, err)
			}
		}
	}
	for _, pg := range pool.PGs {
		lo, hi := starts[pg.ID], starts[pg.ID+1]
		if lo == hi {
			continue
		}
		for shard, osdID := range pg.Acting {
			if err := c.osds[osdID].Store.WriteChunksBulk(runs[pg.ID], shard); err != nil {
				return fmt.Errorf("cluster: bulk load on osd.%d: %w", osdID, err)
			}
		}
		pg.bulk = runs[pg.ID]
		if len(pg.Objects) == 0 {
			pg.Objects = records[lo:hi:hi]
		} else {
			pg.Objects = append(pg.Objects, records[lo:hi]...)
		}
	}
	return nil
}

// findObject locates an object's record in its PG, or returns nil.
func (p *Pool) findObject(name string) (*PG, *ObjectRecord) {
	pg := p.pgOf(name)
	for i := range pg.Objects {
		if pg.Objects[i].Name == name {
			return pg, &pg.Objects[i]
		}
	}
	return pg, nil
}

// WriteObject stores an object with real payload bytes: it erasure-codes
// the data with the pool's plugin and writes one shard per acting-set OSD.
// Objects are written once: a name the pool already holds is refused with
// ErrObjectExists before anything is encoded or written.
//
// Payload layout: data shard i holds the contiguous byte range
// [i*chunk, (i+1)*chunk) of the object (zero-padded at the tail). Ceph
// interleaves stripe units across shards instead; the two layouts are
// equivalent for sizing, repair I/O and durability, and the stripe unit
// still governs chunk padding and sub-chunk granularity here.
func (c *Cluster) WriteObject(poolName, name string, data []byte) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	pg, existing := pool.findObject(name)
	if existing != nil {
		return fmt.Errorf("%w: %s/%s", ErrObjectExists, poolName, name)
	}
	code := pool.Code
	cs, err := pool.storedChunkSize(int64(len(data)), true)
	if err != nil {
		return err
	}
	shards := make([][]byte, code.N())
	for i := 0; i < code.K(); i++ {
		shards[i] = make([]byte, cs)
		lo := int64(i) * cs
		if lo < int64(len(data)) {
			hi := lo + cs
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			copy(shards[i], data[lo:hi])
		}
	}
	if err := code.Encode(shards); err != nil {
		return err
	}
	share := int64(len(data)) / int64(code.N())
	for shard, osdID := range pg.Acting {
		osd := c.osds[osdID]
		if !osd.up {
			continue // degraded write: shard stays missing until recovery
		}
		if err := osd.Store.WriteChunk(pool.chunkID(pg, name, shard), cs, share, shards[shard]); err != nil {
			return err
		}
	}
	pg.Objects = append(pg.Objects, ObjectRecord{Name: name, Size: int64(len(data)), ChunkSize: cs, Payload: true})
	return nil
}

// ReadObject reads an object, decoding around missing or failed shards
// (a degraded read) when necessary.
func (c *Cluster) ReadObject(poolName, name string) ([]byte, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	pg, rec := pool.findObject(name)
	if rec == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, name)
	}
	if !rec.Payload {
		return nil, fmt.Errorf("cluster: object %s has no payload (accounting mode)", name)
	}
	code := pool.Code
	shards, available := c.survivingShards(pool, pg, name, nil)
	if available < code.K() {
		return nil, fmt.Errorf("cluster: object %s unreadable: %d of %d shards available", name, available, code.K())
	}
	if available < code.N() {
		if err := code.Decode(shards); err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, rec.Size)
	for i := 0; i < code.K() && int64(len(out)) < rec.Size; i++ {
		need := rec.Size - int64(len(out))
		if need > int64(len(shards[i])) {
			need = int64(len(shards[i]))
		}
		out = append(out, shards[i][:need]...)
	}
	return out, nil
}

// survivingShards reads an object's shards from the up OSDs of its acting
// set, skipping the given shard positions and any chunk a store cannot
// serve; missing shards stay nil. It returns the shards and how many it
// read.
func (c *Cluster) survivingShards(pool *Pool, pg *PG, object string, skip []int) ([][]byte, int) {
	shards := make([][]byte, pool.Code.N())
	available := 0
	for shard, osdID := range pg.Acting {
		osd := c.osds[osdID]
		if !osd.up || slices.Contains(skip, shard) {
			continue
		}
		_, buf, err := osd.Store.ReadChunk(pool.chunkID(pg, object, shard))
		if err != nil || buf == nil {
			continue
		}
		shards[shard] = buf
		available++
	}
	return shards, available
}

// UsedBytes sums OSD-level storage usage across the cluster, the quantity
// behind the paper's Actual WA Factor.
func (c *Cluster) UsedBytes() int64 {
	var total int64
	for _, o := range c.osds {
		total += o.Store.UsedBytes()
	}
	return total
}

// RankHosts ranks the hosts holding the pool's chunks, the most chunks
// first and ties by name, leaving out the OSDs in skip (nil skips none):
// the EC-aware order the white-box fault injector picks targets in, so a
// "host failure" is guaranteed to intersect stored data. osdChunks holds
// each counted OSD's chunk count.
func (c *Cluster) RankHosts(poolName string, skip map[int]bool) (hosts []string, osdChunks map[int]int, err error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, nil, err
	}
	osdChunks, hostChunks := map[int]int{}, map[string]int{}
	for _, pg := range pool.PGs {
		for _, id := range pg.Acting {
			if len(pg.Objects) > 0 && !skip[id] {
				osdChunks[id] += len(pg.Objects)
				hostChunks[c.crush.HostOf(id)] += len(pg.Objects)
			}
		}
	}
	if len(hostChunks) == 0 {
		return nil, nil, fmt.Errorf("cluster: pool %q holds no data", poolName)
	}
	hosts = make([]string, 0, len(hostChunks))
	for h := range hostChunks {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hostChunks[hosts[i]] != hostChunks[hosts[j]] {
			return hostChunks[hosts[i]] > hostChunks[hosts[j]]
		}
		return hosts[i] < hosts[j]
	})
	return hosts, osdChunks, nil
}

// HostWithMostChunks returns the first host of RankHosts: the one whose
// OSDs hold the most chunks of the pool.
func (c *Cluster) HostWithMostChunks(poolName string) (string, error) {
	hosts, _, err := c.RankHosts(poolName, nil)
	if err != nil {
		return "", err
	}
	return hosts[0], nil
}
