// Fault injection: drives the ECFault Worker/NVMe-oF path directly — the
// §3.1/§3.2 machinery. It writes real objects through the cluster, takes
// control of the fault targets' devices by exporting them as virtual NVMe
// disks over TCP, removes their subsystems with the worker (the
// nvmetcli-style device fault), and shows the system recovering the
// payload bit-exact.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)

	p := core.DefaultProfile()
	p.Name = "fault-injection-demo"
	p.Cluster.Hosts = 15
	p.Cluster.DeviceCapacityGB = 4
	p.Pool.K = 4
	p.Pool.M = 2
	p.Pool.PGNum = 16
	p.Pool.StripeUnit = 64 << 10
	p.Workload.Objects = 1 // workload driven manually below
	p.Workload.ObjectSize = 1 << 20
	p.Faults = nil

	co, err := core.NewCoordinator(p)
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	cl := co.Cluster()

	// Create the pool and store real objects.
	if _, err := cl.CreatePool(co.PoolConfig()); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	contents := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("object-%02d", i)
		data := make([]byte, 300_000+rng.Intn(200_000))
		rng.Read(data)
		contents[name] = data
		if err := cl.WriteObject(p.Pool.Name, name, data); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d objects with real payloads\n", len(contents))

	// EC-aware fault planning: the injector picks a data-bearing device
	// and refuses plans beyond the code's fault tolerance.
	inj := core.NewFaultInjector(cl, p.Pool.Name)
	plan, err := inj.Plan(core.FaultSpec{Level: core.FaultLevelDevice, Count: 2, Locality: core.LocalityDiffHosts, AtSeconds: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault plan: device-level, OSDs %v (white-box guard passed)\n", plan.OSDs)

	// Apply the device fault through the worker's remote-storage control
	// path, then let the cluster detect and recover.
	for _, id := range plan.OSDs {
		w, err := co.DeviceWorker(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  osd.%d exported by worker %s, target at %s, %d namespace(s)\n", id, w.Host(), w.Addr(), len(w.Provisioned()))
		if err := w.FailDevice(id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  removed NVMe subsystem of osd.%d on %s — device now errors\n", id, w.Host())
	}
	inj.Inject(plan)
	res, err := cl.RecoverPool(p.Pool.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d chunks in %.1fs (checking %.1fs + EC %.1fs)\n",
		res.RepairedChunks, res.SystemRecoveryTime().Seconds(),
		res.CheckingPeriod().Seconds(), res.ECRecoveryPeriod().Seconds())

	// Verify every object against the original bytes; the failed OSDs are
	// still down, so reads exercise the recovered chunks.
	for name, want := range contents {
		got, err := cl.ReadObject(p.Pool.Name, name)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("%s: bytes differ after recovery", name)
		}
	}
	fmt.Printf("all %d objects verified bit-exact after recovery ✓\n", len(contents))
}
