// Mediastream: two "nodes" in one process connected by real TCP sockets on
// loopback — a JSBS-style media-content feed streamed heap-to-heap. The
// driver registry is also served over TCP, so this is the full Algorithm 1
// + Algorithm 2 wire deployment in miniature.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"skyway"
	"skyway/internal/datagen"
	"skyway/internal/klass"
)

func main() {
	n := flag.Int("n", 2000, "media records to stream")
	flag.Parse()

	cp := klass.NewPath()
	datagen.MediaClasses(cp)

	// Driver registry over TCP (Algorithm 1's daemon thread).
	reg := skyway.NewInProcRegistry()
	regLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	regSrv := skyway.ServeRegistry(reg, regLn)
	defer regSrv.Close()

	// Worker runtimes dial the registry like remote JVMs would.
	dial := func(name string) *skyway.Runtime {
		client, err := skyway.DialRegistry(regLn.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		rt, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: name, Registry: client})
		if err != nil {
			log.Fatal(err)
		}
		return rt
	}
	sender := dial("media-producer")
	receiver := dial("media-consumer")

	// Data socket between the nodes.
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer dataLn.Close()

	done := make(chan int64, 1)
	go func() { // consumer node
		r, conn, err := skyway.AcceptReader(receiver, dataLn)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		mck := receiver.MustLoad(datagen.MediaContentClass)
		mk := receiver.MustLoad(datagen.MediaClass)
		var totalSize int64
		for {
			mc, err := r.ReadObject()
			if err != nil {
				break // EOF ends the stream
			}
			media := receiver.GetRef(mc, mck.FieldByName("media"))
			totalSize += receiver.GetLong(media, mk.FieldByName("size"))
		}
		done <- totalSize
	}()

	gen := datagen.NewMediaGen(sender, 1)
	svc := skyway.NewService(sender)
	w, err := skyway.DialWriter(svc, dataLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	var sentSize int64
	mck := sender.MustLoad(datagen.MediaContentClass)
	mk := sender.MustLoad(datagen.MediaClass)
	for i := 0; i < *n; i++ {
		mc, err := gen.One(i)
		if err != nil {
			log.Fatal(err)
		}
		h := sender.Pin(mc)
		media := sender.GetRef(h.Addr(), mck.FieldByName("media"))
		sentSize += sender.GetLong(media, mk.FieldByName("size"))
		if err := w.WriteObject(h.Addr()); err != nil {
			log.Fatal(err)
		}
		h.Release()
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	gotSize := <-done
	// Writer.Bytes counts object-image bytes; the socket carried the
	// compact wire, about half as many.
	fmt.Printf("streamed %d media graphs (%d objects, %d image bytes) in %v over TCP\n",
		*n, w.Objects, w.Bytes, elapsed.Round(time.Millisecond))
	fmt.Printf("checksum: sender media bytes %d, receiver media bytes %d, match=%v\n",
		sentSize, gotSize, sentSize == gotSize)
	lookups, _ := receiver.View.RemoteLookups()
	fmt.Printf("registry: receiver resolved %d classes with %d remote LOOKUPs\n",
		receiver.ClassesLoaded, lookups)
}
