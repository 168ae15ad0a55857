package cyrus_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/cyrus"
)

// ExampleNew shows the minimal path: build a cloud over three providers,
// store a file, read it back.
func ExampleNew() {
	ctx := context.Background()
	var stores []cyrus.Store
	for _, name := range []string{"alpha", "beta", "gamma"} {
		s := cyrus.NewMemStore(name, 0)
		if err := s.Authenticate(ctx, cyrus.Credentials{Token: "demo"}); err != nil {
			log.Fatal(err)
		}
		stores = append(stores, s)
	}
	client, err := cyrus.New(cyrus.Config{
		ClientID: "example",
		Key:      "user secret",
		T:        2, // two providers must cooperate to read anything
		N:        3, // one provider may fail without data loss
	}, stores)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Put(ctx, "hello.txt", []byte("hello, client-defined cloud")); err != nil {
		log.Fatal(err)
	}
	data, info, err := client.Get(ctx, "hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%d bytes, conflicted=%v)\n", data, info.Size, info.Conflicted)
	// Output: hello, client-defined cloud (27 bytes, conflicted=false)
}

// ExampleClient_History shows versioning: every Put is a new version and
// old ones stay downloadable and restorable.
func ExampleClient_History() {
	ctx := context.Background()
	var stores []cyrus.Store
	for _, name := range []string{"alpha", "beta", "gamma"} {
		s := cyrus.NewMemStore(name, 0)
		_ = s.Authenticate(ctx, cyrus.Credentials{Token: "demo"})
		stores = append(stores, s)
	}
	client, _ := cyrus.New(cyrus.Config{ClientID: "ex", Key: "k", T: 2, N: 3}, stores)

	_ = client.Put(ctx, "doc", []byte("first draft"))
	_ = client.Put(ctx, "doc", []byte("final version"))
	hist, _ := client.History(ctx, "doc")
	fmt.Println("versions:", len(hist))

	var old bytes.Buffer
	_, _ = client.GetVersionTo(ctx, "doc", hist[len(hist)-1].VersionID, &old)
	fmt.Printf("oldest: %s\n", old.Bytes())

	_ = client.Restore(ctx, "doc", hist[len(hist)-1].VersionID)
	cur, _, _ := client.Get(ctx, "doc")
	fmt.Printf("after restore: %s\n", cur)
	// Output:
	// versions: 2
	// oldest: first draft
	// after restore: first draft
}

// ExampleInferClusters shows platform inference: providers hosted on the
// same cloud platform must not hold two shares of one chunk.
func ExampleInferClusters() {
	clusters, _ := cyrus.InferClusters([]string{"bitcasa", "cloudapp", "dropbox", "box"})
	fmt.Println("bitcasa and cloudapp share a platform:", clusters["bitcasa"] == clusters["cloudapp"])
	fmt.Println("dropbox is independent of bitcasa:", clusters["dropbox"] != clusters["bitcasa"])
	// Output:
	// bitcasa and cloudapp share a platform: true
	// dropbox is independent of bitcasa: true
}
