// Quickstart: build a CYRUS cloud over four in-memory providers, store a
// file, inspect how it was scattered, and read it back.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/cyrus"
)

func main() {
	ctx := context.Background()

	// Four provider accounts. In production these would be directory-backed
	// stores (cyrus.NewDirStore) or real connectors; the API is identical.
	var stores []cyrus.Store
	for _, name := range []string{"dropbox", "google-drive", "onedrive", "box"} {
		s := cyrus.NewMemStore(name, 0)
		if err := s.Authenticate(ctx, cyrus.Credentials{Token: "demo"}); err != nil {
			log.Fatal(err)
		}
		stores = append(stores, s)
	}

	// Platform clustering (paper §4.1): providers on shared infrastructure
	// never hold two shares of the same chunk.
	clusters, err := cyrus.InferClusters([]string{"dropbox", "google-drive", "onedrive", "box"})
	if err != nil {
		log.Fatal(err)
	}

	client, err := cyrus.New(cyrus.Config{
		ClientID:  "quickstart",
		Key:       "correct horse battery staple", // the user secret: derives coding + share names
		T:         2,                              // privacy: two providers needed to read anything
		N:         3,                              // reliability: one provider may vanish
		ClusterOf: clusters,
	}, stores)
	if err != nil {
		log.Fatal(err)
	}

	// Store a file.
	content := bytes.Repeat([]byte("CYRUS turns many rigid clouds into one you define. "), 2000)
	if err := client.Put(ctx, "manifesto.txt", content); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored manifesto.txt: %d bytes\n", len(content))

	// What does each provider actually see? Opaque share objects only.
	for _, s := range stores {
		objs, err := s.List(ctx, "")
		if err != nil {
			log.Fatal(err)
		}
		var total int64
		for _, o := range objs {
			total += o.Size
		}
		fmt.Printf("  %-13s %2d objects, %7d bytes (no names, no plaintext, < t shares of any chunk)\n",
			s.Name(), len(objs), total)
	}

	// Read it back.
	got, info, err := client.Get(ctx, "manifesto.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d bytes, version %.8s, conflicted=%v\n", len(got), info.VersionID, info.Conflicted)
	if !bytes.Equal(got, content) {
		log.Fatal("round trip mismatch")
	}

	// Edit and store again: content-defined chunking + dedup mean only the
	// changed chunks are re-uploaded, and history is kept.
	edited := append(append([]byte{}, content...), []byte("Edited!")...)
	if err := client.Put(ctx, "manifesto.txt", edited); err != nil {
		log.Fatal(err)
	}
	hist, err := client.History(ctx, "manifesto.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("history has %d versions; old versions remain downloadable:\n", len(hist))
	for _, v := range hist {
		fmt.Printf("  %.8s  %d bytes  %s\n", v.VersionID, v.Size, v.Modified.Format("15:04:05"))
	}
	var old bytes.Buffer
	if _, err := client.GetVersionTo(ctx, "manifesto.txt", hist[len(hist)-1].VersionID, &old); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched original version: %d bytes, intact=%v\n", old.Len(), bytes.Equal(old.Bytes(), content))
}
