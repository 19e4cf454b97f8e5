package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"skyway/internal/fault"
)

// hygieneVars each silently change the program being measured: the heap
// verifier, the arena default, the parallel-task default, span tracing, and
// fault injection.
var hygieneVars = []string{"SKYWAY_VERIFY", "SKYWAY_ARENA", "SKYWAY_PARALLEL", "SKYWAY_TRACE", "SKYWAY_FAULT"}

// checkHygiene refuses to measure a process one of the knobs has altered.
func checkHygiene() error {
	for _, v := range hygieneVars {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set: it changes the measured program; unset it", v)
		}
	}
	if fault.Active() {
		return fmt.Errorf("a fault plan is active: it changes the measured program")
	}
	return nil
}

// pinProcs runs every goroutine of the benchmark — sender and receiver,
// tasks and block-server handlers, the Go collector — on one scheduler
// thread. An iteration's wall time is then the serialized cost of all the
// layers' work and does not depend on how two threads happened to overlap:
// on the two-vCPU reference host, xfer-records' median iteration ranged
// 43-52 ms over four same-seed runs with two threads and 60.2-61.5 ms with
// one. The second vCPU is left to absorb the host's background work.
func pinProcs() {
	runtime.GOMAXPROCS(1)
}

// envBlock stamps a result file with where and how it was measured, so
// baselines from different hosts or sizes are never silently compared.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      string  `json:"sizes"`
}

func newEnvBlock(seed uint64, seconds float64, sz sizes) envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit(),
		Seed:       seed,
		Seconds:    seconds,
		Sizes:      fmt.Sprintf("%+v", sz),
	}
}

// comparable is the part of the stamp two result files must share to be
// compared: everything but the commit, which is what a comparison is about.
func (e envBlock) comparable() envBlock {
	e.GitCommit = ""
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository reports "unknown".
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if c := firstLine(filepath.Join(".git", ref)); c != "unknown" {
		return c
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if c, name, ok := strings.Cut(line, " "); ok && name == ref {
			return c
		}
	}
	return "unknown"
}
