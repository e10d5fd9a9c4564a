package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/parallel"
)

// commit is stamped by bench/ecperf.sh (-ldflags -X main.commit=...); a
// plain `go run` or a checkout without git leaves it unknown.
var commit = "unknown"

// fingerprint is the shape of the host and of the program's self-tuning,
// recorded with every result so two result sets are only compared when
// they were taken under the same conditions.
type fingerprint struct {
	NProc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	CPUModel      string   `json:"cpu_model"`
	Backend       string   `json:"gf256_backend"`
	Backends      []string `json:"gf256_backends"`
	CPUFeatures   []string `json:"cpu_features"`
	ChunkBytes    int      `json:"kernel_chunk_bytes"`
	ParallelBytes int      `json:"kernel_parallel_threshold"`
	StridedBytes  int      `json:"kernel_strided_threshold"`
	Workers       int      `json:"parallel_workers"`
	KernelWorkers int      `json:"parallel_kernel_workers"`
	Commit        string   `json:"commit"`
}

// shape is the part of the fingerprint two runs must share to be
// compared: the machine, the toolchain, the kernel tier and the budgets.
// The calibrated tuning is left out; it differs from process to process.
func (h fingerprint) shape() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, gf256 %s, workers %d/%d",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Backend, h.Workers, h.KernelWorkers)
}

// hostFingerprint reads the fingerprint. kernel.Tuning runs the program's
// one-shot calibration probe if nothing has yet, so callers that time
// set-up call it inside the timed region.
func hostFingerprint() fingerprint {
	chunk, par, strided := kernel.Tuning()
	return fingerprint{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		Backend:       gf256.Backend(),
		Backends:      gf256.Backends(),
		CPUFeatures:   gf256.CPUFeatures(),
		ChunkBytes:    chunk,
		ParallelBytes: par,
		StridedBytes:  strided,
		Workers:       parallel.Workers(),
		KernelWorkers: parallel.KernelWorkers(),
		Commit:        commit,
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB
// of 10^6 bytes, 0 where /proc is unavailable.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}

// forbiddenEnv returns the first ECFAULT_* variable set in the process
// environment. Every one of them selects a non-default path or budget of
// the program, so a run under any of them would not measure what the
// benchmark is defined on.
func forbiddenEnv() string {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "ECFAULT_") {
			return name
		}
	}
	return ""
}

func mb(bytes float64) float64 { return bytes / 1e6 }
