// Command cyruscsp runs one cloud-storage provider speaking the resthttp
// protocol — the server side a commercial CSP would operate. Run a few of
// these (different ports, different machines) and point cyrusctl or the
// cyrus library at them to get a CYRUS cloud over real sockets.
//
//	CYRUSCSP_TOKEN=s3cret cyruscsp -addr :8081 -name alpha
//	CYRUSCSP_TOKEN=s3cret cyruscsp -addr :8082 -name beta  -identity id-keyed
//	cyruscsp -addr :8083 -name gamma -token-file tok.txt -capacity 1073741824
//
// The token may also be passed with -token, but prefer the CYRUSCSP_TOKEN
// environment variable or -token-file: argv is world-readable on most
// systems (ps, /proc/<pid>/cmdline), so a flag-passed token leaks to any
// local user.
//
// Then:
//
//	cyrusctl -config cloud.json init -t 2 -n 3 \
//	    -csp alpha=http://host1:8081 -csp beta=http://host2:8082 -csp gamma=http://host3:8083
//
// The -admin flag additionally exposes POST /admin/fail and
// POST /admin/available for failure-injection demos; leave it off in any
// real deployment.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/resthttp"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	name := flag.String("name", "cyruscsp", "provider name")
	token := flag.String("token", "", "bearer token clients must present (prefer CYRUSCSP_TOKEN or -token-file; argv is visible to other local users)")
	tokenFile := flag.String("token-file", "", "file holding the bearer token (surrounding whitespace is trimmed)")
	capacity := flag.Int64("capacity", 0, "storage capacity in bytes (0 = unlimited)")
	identity := flag.String("identity", "name-keyed", "object identity model: name-keyed (overwrite) or id-keyed (duplicate)")
	dir := flag.String("dir", "", "serve objects from this directory (durable; streams bodies end to end) instead of memory")
	admin := flag.Bool("admin", false, "expose fault-injection admin endpoints (testing only; memory backend only)")
	withObs := flag.Bool("obs", true, "serve /metrics, /healthz, /debug/flightrecorder, /debug/pprof/")
	flag.Parse()

	tok, err := resolveToken(*token, *tokenFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyruscsp: %v\n", err)
		os.Exit(2)
	}
	var id csp.ObjectIdentity
	switch *identity {
	case "name-keyed":
		id = csp.NameKeyed
	case "id-keyed":
		id = csp.IDKeyed
	default:
		fmt.Fprintf(os.Stderr, "cyruscsp: unknown -identity %q\n", *identity)
		os.Exit(2)
	}

	var srv *resthttp.Server
	if *dir != "" {
		if *admin {
			fmt.Fprintln(os.Stderr, "cyruscsp: -admin needs the in-memory backend; drop -dir or -admin")
			os.Exit(2)
		}
		store, derr := cloudsim.NewDirStore(*name, *dir)
		if derr != nil {
			log.Fatal(derr)
		}
		srv, err = resthttp.NewStoreServer(store, tok)
	} else {
		backend := cloudsim.NewBackend(*name, id, *capacity)
		srv, err = resthttp.NewServer(backend, tok, *admin)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *withObs {
		srv.SetObserver(obs.NewObserver())
	}
	log.Printf("cyruscsp %q serving on %s (identity=%s capacity=%d dir=%q admin=%v obs=%v)",
		*name, *addr, *identity, *capacity, *dir, *admin, *withObs)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}

// resolveToken picks the bearer token from, in order of precedence, the
// -token flag, the -token-file contents, and the CYRUSCSP_TOKEN environment
// variable.
func resolveToken(flagToken, tokenFile string) (string, error) {
	if flagToken != "" {
		return flagToken, nil
	}
	if tokenFile != "" {
		b, err := os.ReadFile(tokenFile)
		if err != nil {
			return "", fmt.Errorf("-token-file: %v", err)
		}
		tok := strings.TrimSpace(string(b))
		if tok == "" {
			return "", fmt.Errorf("-token-file %s is empty", tokenFile)
		}
		return tok, nil
	}
	if tok := os.Getenv("CYRUSCSP_TOKEN"); tok != "" {
		return tok, nil
	}
	return "", errors.New("a bearer token is required: set CYRUSCSP_TOKEN, -token-file, or -token")
}
