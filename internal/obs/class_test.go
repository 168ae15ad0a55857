package obs

import (
	"strings"
	"testing"
)

// TestClassLifecycleExposition pins the storage-class and lifecycle metric
// families in the Prometheus exposition. Every input is fixed, so the
// asserted sample lines are deterministic.
func TestClassLifecycleExposition(t *testing.T) {
	o := NewObserver()

	o.ClassUsage("", 3, 4096)
	o.ClassUsage("cold", 2, 1<<20)
	o.LifecycleMigration(512)
	o.LifecycleMigration(512)
	o.LifecycleFailure()

	var b strings.Builder
	o.Registry().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE " + MetricClassBytes + " gauge",
		MetricClassBytes + `{class="default"} 4096`,
		MetricClassBytes + `{class="cold"} 1.048576e+06`,
		"# TYPE " + MetricClassObjects + " gauge",
		MetricClassObjects + `{class="default"} 3`,
		MetricClassObjects + `{class="cold"} 2`,
		"# TYPE " + MetricLifecycleMigrations + " counter",
		MetricLifecycleMigrations + " 2",
		MetricLifecycleBytes + " 1024",
		MetricLifecycleFailures + " 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestClassLabel covers the default-class label mapping.
func TestClassLabel(t *testing.T) {
	if ClassLabel("") != "default" {
		t.Fatalf("ClassLabel(\"\") = %q", ClassLabel(""))
	}
	if ClassLabel("cold") != "cold" {
		t.Fatalf("ClassLabel(cold) = %q", ClassLabel("cold"))
	}
}

// TestLifecycleNilObserver proves the nil-safety contract for the new
// methods.
func TestLifecycleNilObserver(t *testing.T) {
	var o *Observer
	o.ClassUsage("cold", 1, 1)
	o.LifecycleMigration(1)
	o.LifecycleFailure()
}
