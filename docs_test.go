package repro

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/transfer"
)

// TestDocKnobsExist is the knob drift guard: every `Config.<Field>` and
// `Transfer.<Field>` / `Tunables.<Field>` token README.md, DESIGN.md and
// EXPERIMENTS.md quote must name a real field of core.Config or
// transfer.Tunables, so a knob cannot be deleted or renamed while the docs
// keep advertising it.
func TestDocKnobsExist(t *testing.T) {
	owners := map[string]reflect.Type{
		"Config":   reflect.TypeOf(core.Config{}),
		"Transfer": reflect.TypeOf(transfer.Tunables{}),
		"Tunables": reflect.TypeOf(transfer.Tunables{}),
	}
	token := regexp.MustCompile("`(Config|Transfer|Tunables)\\.([A-Z][A-Za-z0-9]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, m := range token.FindAllSubmatch(text, -1) {
			found++
			owner, field := string(m[1]), string(m[2])
			if _, ok := owners[owner].FieldByName(field); !ok {
				t.Errorf("%s documents `%s.%s`, but %v has no such field", doc, owner, field, owners[owner])
			}
		}
		if found == 0 {
			t.Errorf("%s: no knob tokens matched — did the docs change notation?", doc)
		}
	}
}
