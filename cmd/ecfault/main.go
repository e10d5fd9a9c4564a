// Command ecfault runs one ECFault experiment described by a JSON profile
// and prints the measured recovery cycle, storage overhead, and merged
// log timeline.
//
// Usage:
//
//	ecfault -profile profile.json [-scale N] [-timeline]
//	ecfault -default > profile.json     # emit the paper-baseline profile
//	ecfault -clay > profile.json        # emit the Clay(12,9,11) profile
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cephconf"
	"repro/internal/core"
	"repro/internal/profutil"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main's body: it returns instead of exiting, so the deferred
// profile stop also runs when the experiment fails.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("ecfault", flag.ExitOnError)
	profilePath := fs.String("profile", "", "experiment profile (JSON)")
	confPath := fs.String("conf", "", "ceph.conf-style INI overlaying the profile")
	scale := fs.Int("scale", 1, "divide the profile workload by this factor")
	timeline := fs.Bool("timeline", false, "print the merged log timeline")
	emitDefault := fs.Bool("default", false, "print the paper-baseline profile and exit")
	emitClay := fs.Bool("clay", false, "print the Clay(12,9,11) profile and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if *scale < 1 {
		return fmt.Errorf("ecfault: -scale must be at least 1, got %d", *scale)
	}

	stopProf, err := profutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	if *emitDefault || *emitClay {
		p := core.DefaultProfile()
		if *emitClay {
			p = core.ClayProfile()
		}
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	if *profilePath == "" {
		return errors.New("ecfault: -profile is required (or -default / -clay to emit one)")
	}
	p, err := core.LoadProfile(*profilePath)
	if err != nil {
		return err
	}
	if *confPath != "" {
		conf, err := cephconf.Load(*confPath)
		if err != nil {
			return err
		}
		if p, err = conf.ApplyProfile(p); err != nil {
			return err
		}
	}
	p = p.ScaleWorkload(*scale)

	res, err := core.Run(p)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "profile: %s (%s, k=%d m=%d pg_num=%d stripe_unit=%d)\n",
		p.Name, p.Pool.Plugin, p.Pool.K, p.Pool.M, p.Pool.PGNum, p.Pool.StripeUnit)
	fmt.Fprintf(stdout, "workload: %d x %d MiB objects (%.1f GiB written)\n",
		p.Workload.Objects, p.Workload.ObjectSize>>20, float64(res.WrittenBytes)/float64(1<<30))
	fmt.Fprintf(stdout, "storage:  %.1f GiB used, %s\n",
		float64(res.UsedBytes)/float64(1<<30), report.WAReport(res.WA))

	if res.Recovery != nil {
		r := res.Recovery
		fmt.Fprintf(stdout, "recovery: detected=%v start=%v finished=%v\n", r.DetectedAt, r.RecoveryStartAt, r.FinishedAt)
		fmt.Fprintf(stdout, "          system recovery %.1fs = checking %.1fs (%.1f%%) + EC recovery %.1fs\n",
			r.SystemRecoveryTime().Seconds(), r.CheckingPeriod().Seconds(),
			r.CheckingFraction()*100, r.ECRecoveryPeriod().Seconds())
		fmt.Fprintf(stdout, "          %d degraded PGs, %d chunks repaired (%d object repairs, %d full decodes)\n",
			r.DegradedPGs, r.RepairedChunks, r.ObjectRepairs, r.FullDecodeObjects)
		fmt.Fprintf(stdout, "          helper reads %.2f GiB, network %.2f GiB, writes %.2f GiB\n",
			gib(r.HelperDiskBytes), gib(r.NetworkBytes), gib(r.WrittenBytes))
	}
	if res.Scrub != nil {
		fmt.Fprintf(stdout, "scrub:    %d chunks checked, %d inconsistent, %d repaired\n",
			res.Scrub.ChunksScrubbed, len(res.Scrub.Inconsistent), res.RepairedInconsistent)
	}
	fmt.Fprintf(stdout, "logs:     %d lines shipped, %d dropped locally, %d iostat samples\n",
		res.LogLinesShipped, res.LogLinesDropped, len(res.IOSamples))
	if res.Profile.Workload.Payload {
		fmt.Fprintf(stdout, "payload:  verified=%v (%d errors)\n", res.PayloadVerified, res.PayloadErrors)
	}
	if *timeline && len(res.Timeline) > 0 {
		fmt.Fprintln(stdout, "\ntimeline (recovery phases):")
		fmt.Fprint(stdout, report.TimelineEvents(res.Timeline, res.Timeline[0].Time))
	}
	return nil
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }
