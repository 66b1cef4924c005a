package spin

import (
	"testing"
	"time"
)

func TestZeroItersIsFree(t *testing.T) {
	w := Worker{Mode: Latency, Unit: time.Second}
	start := time.Now()
	w.Do(0)
	w.Do(-5)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("zero iterations slept")
	}
}

func TestLatencySleeps(t *testing.T) {
	w := Worker{Mode: Latency, Unit: time.Millisecond}
	start := time.Now()
	w.Do(20)
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("slept only %v for a 20ms budget", el)
	}
}

func TestBusyCompletes(t *testing.T) {
	w := Worker{Mode: Busy}
	w.Do(100000) // must terminate and not be optimized away
}

func TestDuration(t *testing.T) {
	w := Worker{Unit: 10 * time.Nanosecond}
	if got := w.Duration(1000); got != 10*time.Microsecond {
		t.Fatalf("Duration = %v", got)
	}
	wd := Worker{}
	if got := wd.Duration(1000); got != 1000*DefaultUnit {
		t.Fatalf("default Duration = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if Busy.String() != "busy" || Latency.String() != "latency" {
		t.Fatal("bad mode names")
	}
}
