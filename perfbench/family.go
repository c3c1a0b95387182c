package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// item is one program the local pipeline records, decodes, replays and
// analyses in every round.
type item struct {
	name string
	prog *isa.Program
	// cfg is the recording configuration; the native run uses it with
	// recording off.
	cfg machine.Config
	// stream records through core.StreamRecord and decodes with
	// core.SalvageStream instead of Record, Marshal and UnmarshalBundle.
	stream bool
	// window marks a RetainCheckpoints flight-recorder stream: only its
	// tail is replayed, and it skips parallel replay and race analysis.
	window bool
}

// sizes scales every input the benchmark builds. fullSizes is the
// benchmark proper; smokeSizes is the minimal shape the smoke test runs.
type sizes struct {
	splashScale      uint64        // workload.ScaledSuite factor
	splashCheckpoint uint64        // instructions between splash checkpoints
	syscallFactor    int64         // multiple of the catalogue request counts
	syscallCkpt      uint64        // instructions between syscall checkpoints
	poolSeeds        int           // distinct recordings per service program
	setupReps        int           // set-ups per run at most, one per cycle; setup_s is their median
	window           int           // timed verdicts per open-loop window
	closedWindow     time.Duration // closed-loop window
}

// minCycles is the fewest measurement cycles a run makes: a traced run
// needs an untraced and a traced one.
const minCycles = 2

var fullSizes = sizes{
	splashScale:      3,
	splashCheckpoint: 150_000,
	syscallFactor:    10,
	syscallCkpt:      5_000,
	poolSeeds:        4,
	setupReps:        9,
	window:           500,
	closedWindow:     500 * time.Millisecond,
}

var smokeSizes = sizes{
	splashScale:      1,
	splashCheckpoint: 20_000,
	syscallFactor:    1,
	syscallCkpt:      500,
	poolSeeds:        1,
	setupReps:        2,
	window:           20,
	closedWindow:     100 * time.Millisecond,
}

// deriveSeed turns the run's seed and a path of names into an
// independent 64-bit seed (FNV-1a then the splitmix64 finalizer), so
// every scheduler and kernel seed comes from the one --seed argument.
func deriveSeed(seed uint64, path ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range path {
		fmt.Fprintf(h, "/%s", p)
	}
	x := h.Sum64() + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seeded returns cfg with its scheduler and kernel seeds derived from
// the run seed and the item's name.
func seeded(cfg machine.Config, seed uint64, wl, name string) machine.Config {
	cfg.Seed = deriveSeed(seed, wl, name, "sched")
	cfg.KernelSeed = deriveSeed(seed, wl, name, "kernel")
	return cfg
}

// splashItems is the splash workload: the eleven SPLASH-2-like kernels,
// four threads on four simulated cores, signatures captured for the race
// detector, checkpointed for parallel replay.
func splashItems(seed uint64, sz sizes) []item {
	var items []item
	for _, spec := range workload.ScaledSuite(sz.splashScale) {
		if spec.Kind != "splash" {
			continue
		}
		cfg := machine.DefaultConfig()
		cfg.Mode = machine.ModeFull
		cfg.Cores, cfg.Threads = 4, 4
		cfg.CaptureSignatures = true
		cfg.CheckpointEveryInstrs = sz.splashCheckpoint
		items = append(items, item{name: spec.Name, prog: spec.Build(4), cfg: seeded(cfg, seed, "splash", spec.Name)})
	}
	return items
}

// syscallItems is the syscall workload: the four request-serving
// programs at sz.syscallFactor times their catalogue request counts,
// streamed compressed with checkpoints; ioheavy runs a second time as a
// two-interval flight-recorder window.
func syscallItems(seed uint64, sz sizes) []item {
	f := sz.syscallFactor
	base := machine.DefaultConfig()
	base.Mode = machine.ModeFull
	base.Cores, base.Threads = 4, 4
	base.CaptureSignatures = true
	base.CompressStream = true
	base.CheckpointEveryInstrs = sz.syscallCkpt
	progs := []struct {
		name string
		prog *isa.Program
	}{
		{"ioheavy", workload.IOHeavy(40*f, 128, 4)},
		{"kvserver", workload.KVServer(120*f, 32, 4)},
		{"reqserver", workload.ReqServer(48*f, 4, 16, 4)},
		{"sigserver", workload.SigServer(64*f, 4)},
	}
	var items []item
	for _, p := range progs {
		cfg := base
		if p.name == "sigserver" {
			cfg.SignalPeriodInstrs = 5000
		}
		items = append(items, item{name: p.name, prog: p.prog, cfg: seeded(cfg, seed, "syscall", p.name), stream: true})
	}
	win := base
	win.RetainCheckpoints = 2
	items = append(items, item{name: "ioheavy-window", prog: progs[0].prog, cfg: seeded(win, seed, "syscall", "ioheavy-window"), stream: true, window: true})
	return items
}

// servicePrograms are the catalogue programs the service workload
// records, uploads and replays: each is small, so per-upload costs
// (frames, shards, store, verifier, broker) dominate. They are built
// exactly as the catalogue builds them, which is what lets the ingest
// verifier and fleet workers rebuild them by name.
var servicePrograms = []string{"counter", "pingpong", "byteshare", "ioheavy", "racy", "racefree", "kvserver", "reqserver", "sigserver"}

// serviceThreads is the thread count of every service recording.
const serviceThreads = 2

// serviceConfig mirrors ingest.RecordWorkloadStream's recording shape
// (two cores, frequent flushes and checkpoints) with signatures kept for
// the race detector.
func serviceConfig(seed uint64, name string) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores, cfg.Threads = 2, serviceThreads
	cfg.FlushEveryChunks = 8
	cfg.CheckpointEveryInstrs = 2000
	cfg.CaptureSignatures = true
	return seeded(cfg, seed, "service", name)
}

// serviceSeeds is how many differently seeded recordings of each service
// program the service workload's local round makes: the programs are
// small, and more of them make each round's phases long enough to time.
const serviceSeeds = 3

// serviceItems is the service workload's local pipeline: each service
// program, recorded serviceSeeds times per round.
func serviceItems(seed uint64) ([]item, error) {
	var items []item
	for _, name := range servicePrograms {
		prog, err := workload.ProgramByName(name, serviceThreads)
		if err != nil {
			return nil, err
		}
		for k := 0; k < serviceSeeds; k++ {
			id := fmt.Sprintf("%s-%d", name, k)
			items = append(items, item{name: id, prog: prog, cfg: serviceConfig(seed, id), stream: true})
		}
	}
	return items, nil
}

// buildItems builds the named workload's local-pipeline programs.
func buildItems(wl string, seed uint64, sz sizes) ([]item, error) {
	switch wl {
	case "splash":
		return splashItems(seed, sz), nil
	case "syscall":
		return syscallItems(seed, sz), nil
	case "service":
		return serviceItems(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want splash, syscall or service)", wl)
}
