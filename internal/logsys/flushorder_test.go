package logsys

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/msgbus"
	"repro/internal/simclock"
)

// The coordinator's timeline determinism rests on a three-part contract:
// per-node loggers buffer lines in production order, the coordinator
// flushes loggers in sorted node-name order (core/coordinator.go), and
// Collector.Collect stable-sorts by Time only. Pre-sort order is
// (partition index, then append order within the partition), and node
// names key the partitions, so colliding timestamps resolve to a fixed
// per-instant node pattern — a pure function of the node-name set, never
// of the order the simulation happened to produce the lines. This
// regression test pins that contract by producing colliding timestamps
// across nodes in adversarial (reversed, rotated) schedule order through
// a real Sim and asserting the merged stream has the same tie pattern at
// every instant.

func runFlushOrder(t *testing.T) []Entry {
	t.Helper()
	sim := simclock.New()
	broker := msgbus.NewBroker()
	if err := broker.CreateTopic(Topic, 8); err != nil {
		t.Fatal(err)
	}
	cls := DefaultClassifier()
	nodes := []string{"host2", "host0", "host3", "host1"} // deliberately unsorted
	loggers := map[string]*NodeLogger{}
	for _, n := range nodes {
		loggers[n] = NewNodeLogger(n, cls, broker)
	}

	// Adversarial schedule: at every 100µs tick, each node logs one
	// recovery line, but the scheduling order rotates and reverses per
	// tick, so production order across nodes never matches name order.
	for tick := 0; tick < 16; tick++ {
		at := simclock.Time(tick) * 100 * time.Microsecond
		order := append([]string{}, nodes...)
		if tick%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		rot := tick % len(order)
		order = append(order[rot:], order[:rot]...)
		for i, n := range order {
			n, i := n, i
			sim.At(at, func() {
				loggers[n].Logf(sim.Now(), "recovery op %d", i)
				// A second same-instant line per node: per-node order
				// within one instant must also survive the merge.
				loggers[n].Logf(sim.Now(), "recovery op %d b", i)
			})
		}
	}
	sim.Run()

	// Flush in sorted node-name order, exactly as the coordinator does.
	names := make([]string, 0, len(loggers))
	for n := range loggers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := loggers[n].Flush(); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector(broker, "coordinator")
	if _, err := c.Collect(); err != nil {
		t.Fatal(err)
	}
	return c.Entries()
}

func TestFlushOrderBreaksTimestampTies(t *testing.T) {
	merged := runFlushOrder(t)
	if len(merged) != 16*4*2 {
		t.Fatalf("merged %d entries, want %d", len(merged), 16*4*2)
	}

	// Every instant resolves its ties to the SAME node pattern: the tie
	// break depends only on the node-name set (partition keying + sorted
	// flush), so the adversarial per-tick production order must not leak
	// through. Each tick logged two lines per node, back to back.
	var pattern []string
	perInstant := map[simclock.Time][]string{}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatalf("entry %d out of time order: %+v after %+v", i, merged[i], merged[i-1])
		}
	}
	for _, e := range merged {
		perInstant[e.Time] = append(perInstant[e.Time], e.Node)
	}
	for at, nodes := range perInstant {
		if pattern == nil {
			pattern = perInstant[at]
		}
		if len(nodes) != 8 {
			t.Fatalf("instant %v merged %d entries, want 8", at, len(nodes))
		}
		for i := 1; i < len(nodes); i += 2 {
			if nodes[i] != nodes[i-1] {
				t.Fatalf("instant %v: per-node line pair split: %v", at, nodes)
			}
		}
	}
	for at, nodes := range perInstant {
		for i := range nodes {
			if nodes[i] != pattern[i] {
				t.Fatalf("tie pattern differs across instants: %v at %v vs %v\n(production order leaked into the merge)",
					nodes, at, pattern)
			}
		}
	}
	// Per-node production order within an instant survives the merge.
	for i := 1; i < len(merged); i++ {
		prev, cur := merged[i-1], merged[i]
		if cur.Time == prev.Time && cur.Node == prev.Node {
			if fmt.Sprintf("%s b", prev.Message) != cur.Message {
				t.Fatalf("per-node order lost at %v: %q then %q", cur.Time, prev.Message, cur.Message)
			}
		}
	}
}
