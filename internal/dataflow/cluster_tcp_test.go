package dataflow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"skyway/internal/core"
	"skyway/internal/datagen"
	"skyway/internal/fault"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/registry"
	"skyway/internal/serial"
	tcptransport "skyway/internal/transport/tcp"
	"skyway/internal/transport/tcp/tcptest"
)

// The re-exec trampoline: when the test binary is launched with
// SKYWAY_TCP_EXECUTOR set, it is an executor block-server process, not a
// test run — it joins the cluster, serves blocks, and exits when the parent
// closes its stdin. This is how the multi-process tests get real executor
// OS processes without shelling out to `go build`.
const (
	executorEnvID       = "SKYWAY_TCP_EXECUTOR"
	executorEnvRegistry = "SKYWAY_TCP_REGISTRY"
)

func TestMain(m *testing.M) {
	if idStr := os.Getenv(executorEnvID); idStr != "" {
		os.Exit(runExecutorProcess(idStr))
	}
	os.Exit(m.Run())
}

func runExecutorProcess(idStr string) int {
	id, err := strconv.Atoi(idStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "executor trampoline: bad id %q: %v\n", idStr, err)
		return 1
	}
	ex, err := tcptransport.StartExecutor(id, os.Getenv(executorEnvRegistry), "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "executor trampoline: %v\n", err)
		return 1
	}
	// Print the bound address as a liveness marker, then serve until the
	// parent closes stdin (its exit, clean or not, tears us down).
	fmt.Printf("executor %d ready on %s\n", id, ex.Addr())
	io.Copy(io.Discard, os.Stdin)
	ex.Close()
	return 0
}

// spawnExecutors launches n executor block-server processes that announce
// themselves to the registry at regAddr, and wires their lifetime to the
// test's.
func spawnExecutors(t *testing.T, n int, regAddr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			executorEnvID+"="+strconv.Itoa(i),
			executorEnvRegistry+"="+regAddr)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning executor %d: %v", i, err)
		}
		t.Cleanup(func() {
			stdin.Close() // EOF tells the executor to exit
			cmd.Wait()
		})
	}
}

// tcpWordCountInput builds the deterministic workload both the TCP and the
// netsim runs consume.
func tcpWordCountInput(workers int) [][]string {
	lines := datagen.TextSpec{Lines: 400, WordsPerLine: 10, Vocabulary: 300, Seed: 77}.Generate()
	parts := make([][]string, workers)
	for i, l := range lines {
		parts[i%workers] = append(parts[i%workers], l)
	}
	return parts
}

// runTCPWordCount builds a cluster over tr running the named Skyway codec —
// with every runtime's registry view served over real TCP when regAddr is
// set — and runs WordCount on it.
func runTCPWordCount(t *testing.T, name string, workers int, tr *tcptransport.Transport, regAddr string) (metrics.Breakdown, int64, error) {
	t.Helper()
	codec, err := serial.ByName(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := klass.NewPath()
	WorkloadClasses(cp)
	cfg := Config{Workers: workers, Heap: smallHeap(), Transport: tr}
	if regAddr != "" {
		cfg.RegistryClient = func() (registry.Client, error) { return registry.Dial(regAddr) }
	}
	c, err := NewCluster(cp, cfg, codec)
	if err != nil {
		t.Fatal(err)
	}
	return RunWordCount(c, tcpWordCountInput(workers))
}

// TestClusterWordCountOverTCPProcesses is the acceptance test for the TCP
// transport: a real multi-process WordCount. The test process is the driver
// (registry daemon included); two executor block-server OS processes are
// spawned, announce themselves over the SKYR protocol, and every shuffle
// block crosses loopback sockets twice (map PUT to the owning executor
// process, reduce GET back). The decoded result, eager or arena, must be
// bit-identical to the same job on the in-process netsim transport, and the
// byte accounting must agree — the transport moves bytes, it must not change
// them.
func TestClusterWordCountOverTCPProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test spawns executor processes")
	}
	const workers = 2

	reg := registry.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := registry.Serve(reg, ln)
	defer srv.Close()
	regAddr := ln.Addr().String()

	spawnExecutors(t, workers, regAddr)
	tr, err := tcptransport.DiscoverTransport(registry.InProc{R: reg}, workers, 500)
	if err != nil {
		t.Fatalf("executor processes never announced: %v", err)
	}
	defer tr.Close()

	// Reference run: same input, eager codec, in-process netsim transport.
	cp := klass.NewPath()
	WorkloadClasses(cp)
	simC, err := NewCluster(cp, Config{Workers: workers, Heap: smallHeap()}, serial.NewSkywayCodec())
	if err != nil {
		t.Fatal(err)
	}
	simBD, simTotal, err := RunWordCount(simC, tcpWordCountInput(workers))
	if err != nil {
		t.Fatalf("netsim reference run: %v", err)
	}

	// Both receive paths over the executor processes, one cluster after
	// the other on the same block servers.
	for _, name := range skywayNames {
		tcpBD, tcpTotal, err := runTCPWordCount(t, name, workers, tr, regAddr)
		if err != nil {
			t.Fatalf("%s WordCount over TCP executor processes: %v", name, err)
		}
		if tcpTotal != simTotal || tcpTotal == 0 {
			t.Fatalf("%s digest over TCP = %d, netsim = %d (must be bit-identical and nonzero)", name, tcpTotal, simTotal)
		}
		if tcpBD.ShuffleBytes != simBD.ShuffleBytes || tcpBD.ShuffleBytes == 0 {
			t.Fatalf("%s shuffle bytes over TCP = %d, netsim = %d", name, tcpBD.ShuffleBytes, simBD.ShuffleBytes)
		}
		if tcpBD.Records != simBD.Records {
			t.Fatalf("%s records over TCP = %d, netsim = %d", name, tcpBD.Records, simBD.Records)
		}
		// TCP I/O charges are measured socket time: real sockets take real
		// time.
		if tcpBD.ReadIO <= 0 || tcpBD.WriteIO <= 0 {
			t.Fatalf("%s measured TCP I/O charges ReadIO=%v WriteIO=%v, want both positive", name, tcpBD.ReadIO, tcpBD.WriteIO)
		}
	}
}

// TestTCPChaosMatrix runs WordCount over the TCP transport (in-process block
// servers, so failpoints fire deterministically in one process) once per
// transport failpoint, transient and persistent. The chaos invariant is the
// same closed set the netsim matrix enforces: a digest bit-identical to the
// fault-free run, or a structured error — never a panic, never a wrong
// answer. A job that succeeds leaves no block on any server: every reducer
// dropped each block it decoded.
func TestTCPChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	const workers = 2
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)

	structured := func(err error) bool {
		if _, ok := core.AsDecodeError(err); ok {
			return true
		}
		var abort *StageAbortError
		if errors.As(err, &abort) {
			return true
		}
		var fe *fault.Error
		return errors.As(err, &fe)
	}
	points := []string{fault.TransportDial, fault.TransportStreamTorn, fault.TransportPeerSlow}
	modes := []struct{ name, trigger string }{
		{"transient", ":on*times=1"},
		{"persistent", ":1in3"},
	}
	run := func(t *testing.T, name, spec string) (int64, error) {
		t.Helper()
		if err := fault.Configure(spec); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fault.Reset)
		srvs, tr := tcptest.Start(t, workers, tcptransport.Serve, tcptransport.New)
		_, total, err := runTCPWordCount(t, name, workers, tr, "")
		if err == nil {
			for i, srv := range srvs {
				if n := srv.Stored(); n != 0 {
					t.Errorf("block server %d still holds %d blocks after a successful job", i, n)
				}
			}
		}
		return total, err
	}

	// The fault-free digest, the same under either receive path.
	want, err := run(t, "skyway", "")
	if err != nil {
		t.Fatalf("fault-free TCP run: %v", err)
	}
	if got, err := run(t, "skyway-arena", ""); err != nil || got != want {
		t.Fatalf("fault-free skyway-arena TCP run = %d, %v; skyway = %d", got, err, want)
	}
	for _, point := range points {
		for _, mode := range modes {
			t.Run(point+"/"+mode.name, func(t *testing.T) {
				for _, name := range skywayNames {
					t.Run(name, func(t *testing.T) {
						got, err := run(t, name, point+mode.trigger)
						if err != nil {
							if !structured(err) {
								t.Fatalf("unstructured failure under %s%s: %T: %v", point, mode.trigger, err, err)
							}
							t.Logf("%s%s: structured abort: %v", point, mode.trigger, err)
							return
						}
						if got != want {
							t.Fatalf("silent corruption: digest under %s%s = %d, fault-free = %d",
								point, mode.trigger, got, want)
						}
					})
				}
			})
		}
	}
}

// TestRetriedFetchChargedInReadIO is the regression test for the fault-path
// accounting bug: the read I/O a re-fetch performs used to vanish from the
// metrics Breakdown — a transient torn fetch produced the SAME ReadIO as a
// fault-free run even though a block crossed the wire twice. Attempt bytes
// are now priced into FetchCost, so the run that re-fetched must charge
// strictly more read I/O than the clean run.
func TestRetriedFetchChargedInReadIO(t *testing.T) {
	for _, name := range skywayNames {
		t.Run(name, func(t *testing.T) {
			run := func(t *testing.T, spec string) metrics.Breakdown {
				t.Helper()
				if err := fault.Configure(spec); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fault.Reset)
				c := newSkywayCluster(t, name)
				lines := datagen.TextSpec{Lines: 600, WordsPerLine: 8, Vocabulary: 200, Seed: 11}.Generate()
				bd, _, err := RunWordCount(c, [][]string{lines[:200], lines[200:400], lines[400:]})
				if err != nil {
					t.Fatalf("run under %q: %v", spec, err)
				}
				return bd
			}

			clean := run(t, "")
			retried := run(t, fault.DataflowFetchTorn+":on*times=1")
			if fault.Fired(fault.DataflowFetchTorn) != 1 {
				t.Fatalf("torn failpoint fired %d times, want 1", fault.Fired(fault.DataflowFetchTorn))
			}
			if retried.ReadIO <= clean.ReadIO {
				t.Fatalf("ReadIO with one re-fetch = %v, fault-free = %v; the retried fetch's I/O is not being charged",
					retried.ReadIO, clean.ReadIO)
			}
			// The retry must not leak into any other component: the job
			// decoded the same records and shuffled the same bytes.
			if retried.ShuffleBytes != clean.ShuffleBytes || retried.Records != clean.Records {
				t.Fatalf("retry changed byte accounting: shuffle %d vs %d, records %d vs %d",
					retried.ShuffleBytes, clean.ShuffleBytes, retried.Records, clean.Records)
			}
		})
	}
}
