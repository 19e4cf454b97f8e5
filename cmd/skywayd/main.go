// Command skywayd runs either half of a Skyway cluster's shared
// infrastructure: by default the driver-side global type registry as a
// standalone daemon (Algorithm 1's driver, part 2 — workers connect over TCP
// to bulk-fetch the registry view at startup and to look up IDs for newly
// loaded classes), or with -executor an executor block server that stores
// its executor's shuffle blocks, serves them to reducers over framed TCP
// streams, and advertises itself in the registry for peer discovery.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"

	"skyway/internal/obs"
	"skyway/internal/registry"
	transporttcp "skyway/internal/transport/tcp"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7741", "listen address")
	snapshot := flag.String("snapshot", "", "snapshot file: restored at startup if present, written at shutdown (restart-safe type IDs, §4.1)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics on this address (e.g. 127.0.0.1:9090) at /metrics")
	executor := flag.Bool("executor", false, "run as an executor block server instead of the registry daemon")
	exID := flag.Int("id", 0, "executor ID (with -executor)")
	exRegistry := flag.String("registry", "127.0.0.1:7741", "registry daemon address to announce to (with -executor; empty skips the announce)")
	exListen := flag.String("shuffle-listen", "127.0.0.1:0", "block server listen address (with -executor)")
	flag.Parse()

	if *executor {
		runExecutor(*exID, *exRegistry, *exListen)
		return
	}

	reg := registry.NewRegistry()
	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			restored, err := registry.Restore(f)
			f.Close()
			if err != nil {
				log.Fatalf("skywayd: restoring %s: %v", *snapshot, err)
			}
			reg = restored
			log.Printf("skywayd: restored %d types from %s", reg.Len(), *snapshot)
		} else if !os.IsNotExist(err) {
			log.Fatalf("skywayd: %v", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("skywayd: %v", err)
	}
	srv := registry.Serve(reg, ln)
	log.Printf("skywayd: type registry listening on %s", ln.Addr())

	if *metricsAddr != "" {
		obs.RegisterGauge("skyway_registry_types", "Types currently registered in the daemon registry.",
			func() float64 { return float64(reg.Len()) })
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.WriteMetrics(w); err != nil {
				log.Printf("skywayd: /metrics: %v", err)
			}
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("skywayd: metrics: %v", err)
		}
		go func() {
			if err := http.Serve(mln, mux); err != nil && !os.IsTimeout(err) {
				log.Printf("skywayd: metrics server: %v", err)
			}
		}()
		log.Printf("skywayd: Prometheus metrics on http://%s/metrics", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("skywayd: shutting down with %d registered types", reg.Len())
	if err := srv.Close(); err != nil {
		log.Fatalf("skywayd: close: %v", err)
	}
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			log.Fatalf("skywayd: %v", err)
		}
		if err := reg.Snapshot(f); err != nil {
			log.Fatalf("skywayd: snapshot: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("skywayd: snapshot: %v", err)
		}
		log.Printf("skywayd: snapshot written to %s", *snapshot)
	}
}

// runExecutor is skywayd's -executor mode: a block server process that joins
// the cluster by announcing its bound address in the registry and serves
// shuffle blocks until interrupted.
func runExecutor(id int, registryAddr, listenAddr string) {
	ex, err := transporttcp.StartExecutor(id, registryAddr, listenAddr)
	if err != nil {
		log.Fatalf("skywayd: %v", err)
	}
	log.Printf("skywayd: executor %d block server listening on %s", id, ex.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if err := ex.Close(); err != nil {
		log.Fatalf("skywayd: executor close: %v", err)
	}
}
