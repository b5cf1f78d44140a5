package train

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"segscale/internal/faultinject"
	"segscale/internal/telemetry"
)

// drivenCounters are the per-lane counters the driver's traffic golden
// pins: what every incarnation puts on the wire, and how many
// parameter broadcasts it issues.
var drivenCounters = []string{
	"horovod_broadcasts_total",
	"transport_sends_total",
	"transport_sent_bytes",
}

// renderTraffic lists the pinned counters of every lane keep accepts,
// sorted by lane then counter name.
func renderTraffic(name string, col *telemetry.Collector, keep func(lane string) bool) string {
	var rows []string
	for _, m := range col.Gather() {
		pinned := false
		for _, c := range drivenCounters {
			pinned = pinned || m.Name == c
		}
		if !pinned {
			continue
		}
		for lane, v := range m.PerLane {
			if keep(lane) {
				rows = append(rows, fmt.Sprintf("%s %s %s %.0f", name, lane, m.Name, v))
			}
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n") + "\n"
}

// TestDriverTrafficGolden pins the wire traffic and broadcast count of
// both recovery policies, lane by lane, to
// testdata/driver_traffic.golden (regenerate with
// `go test ./internal/train/ -run TestDriverTrafficGolden -update`).
// Only lanes of incarnations no crash tore are pinned: the recovered
// ".r<K>" lanes, and every lane of an unfailed run. A torn incarnation
// stops at a scheduling-dependent point, so its counts vary between
// reruns.
func TestDriverTrafficGolden(t *testing.T) {
	recovered := func(lane string) bool { return strings.Contains(lane, ".r") }
	ranks := func(lane string) bool { return strings.HasPrefix(lane, "rank") }

	restart := fastCfg()
	restart.World = 2
	restart.Epochs = 3
	restart.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.segc")
	restart.MaxRestarts = 1
	restart.Chaos = &faultinject.Plan{
		Crashes: []faultinject.Crash{{Rank: 1, Step: 8, Incarnation: 0}},
	}

	elastic := elasticCfg()
	elastic.Chaos = crashPlan()
	elastic.RejoinEpoch = 5

	single := fastCfg()
	single.Epochs = 2

	got := ""
	for _, sc := range []struct {
		name string
		cfg  Config
		keep func(string) bool
	}{
		{"restart", restart, recovered},
		{"elastic", elastic, recovered},
		{"single", single, ranks},
	} {
		sc.cfg.Telemetry = telemetry.NewCollector()
		if _, err := Run(sc.cfg); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got += renderTraffic(sc.name, sc.cfg.Telemetry, sc.keep)
	}

	goldenPath := filepath.Join("testdata", "driver_traffic.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("driver traffic drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
