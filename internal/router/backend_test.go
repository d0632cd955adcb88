package router

import (
	"testing"
	"time"

	"s3cbcd/internal/obs"
)

func testBreaker(threshold int, cooldown time.Duration) (*breaker, *time.Time) {
	now := time.Unix(1000, 0)
	trips := obs.NewRegistry().Counter("s3_test_trips_total", "test")
	b := newBreaker(threshold, cooldown, trips)
	b.now = func() time.Time { return now }
	return b, &now
}

// mustAllow asserts allow admits the attempt and returns whether it is
// the half-open probe.
func mustAllow(t *testing.T, b *breaker, msg string) bool {
	t.Helper()
	ok, probe := b.allow()
	if !ok {
		t.Fatal(msg)
	}
	return probe
}

func refused(b *breaker) bool {
	ok, _ := b.allow()
	return !ok
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		b.failure()
		if probe := mustAllow(t, b, "open before threshold"); probe {
			t.Fatalf("closed breaker handed out a probe after %d failures", i+1)
		}
	}
	b.failure()
	if !refused(b) {
		t.Fatal("still closed after threshold consecutive failures")
	}
	if got := b.snapshot(); got != breakerOpen {
		t.Fatalf("state %v, want open", got)
	}
	if b.trips.Value() != 1 {
		t.Fatalf("trips %d, want 1", b.trips.Value())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	mustAllow(t, b, "tripped though the streak was broken by a success")
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, now := testBreaker(1, time.Second)
	b.failure()
	if !refused(b) {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	*now = now.Add(time.Second)
	if !mustAllow(t, b, "half-open breaker refused the probe") {
		t.Fatal("cooled-down admission not flagged as the probe")
	}
	// The probe is in flight: nothing else gets through.
	if !refused(b) {
		t.Fatal("half-open breaker admitted a second request")
	}
	b.success()
	if b.snapshot() != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if probe := mustAllow(t, b, "closed breaker refused"); probe {
		t.Fatal("closed breaker handed out a probe")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now := testBreaker(1, time.Second)
	b.failure()
	*now = now.Add(time.Second)
	mustAllow(t, b, "probe refused")
	b.failure()
	if b.snapshot() != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if !refused(b) {
		t.Fatal("re-opened breaker admitted a request before a fresh cooldown")
	}
	*now = now.Add(time.Second)
	mustAllow(t, b, "re-opened breaker refused the next probe after cooldown")
}

// TestBreakerCancelProbeReturnsSlot is the stuck-half-open regression:
// a probe abandoned without an outcome (canceled attempt, budget-full
// launch) must hand its slot back so the breaker can probe again
// immediately, rather than refusing every request forever.
func TestBreakerCancelProbeReturnsSlot(t *testing.T) {
	b, now := testBreaker(1, time.Second)
	b.failure()
	*now = now.Add(time.Second)
	if !mustAllow(t, b, "probe refused") {
		t.Fatal("admission not flagged as the probe")
	}
	b.cancelProbe()
	if b.snapshot() != breakerOpen {
		t.Fatalf("canceled probe left state %v, want open", b.snapshot())
	}
	// The elapsed cooldown still counts: the next allow probes at once,
	// with no fresh cooldown the backend did nothing to earn.
	if !mustAllow(t, b, "breaker refused a re-probe after probe cancelation") {
		t.Fatal("re-probe admission not flagged as the probe")
	}
	b.success()
	if b.snapshot() != breakerClosed {
		t.Fatal("probe after cancelation could not close the breaker")
	}
	// cancelProbe on a breaker not in half-open is a no-op.
	b.cancelProbe()
	if b.snapshot() != breakerClosed {
		t.Fatal("cancelProbe disturbed a closed breaker")
	}
}

func TestBreakerAvailableHasNoSideEffects(t *testing.T) {
	b, now := testBreaker(1, time.Second)
	b.failure()
	*now = now.Add(time.Second)
	for i := 0; i < 3; i++ {
		if !b.available() {
			t.Fatal("cooled-down breaker reported unavailable")
		}
	}
	if b.snapshot() != breakerOpen {
		t.Fatal("available() transitioned the breaker state")
	}
	mustAllow(t, b, "allow refused after available reported true")
}

func TestBreakerDisabled(t *testing.T) {
	b, _ := testBreaker(-1, time.Second)
	for i := 0; i < 100; i++ {
		b.failure()
	}
	if probe := mustAllow(t, b, "disabled breaker tripped"); probe {
		t.Fatal("disabled breaker handed out a probe")
	}
	if !b.available() {
		t.Fatal("disabled breaker unavailable")
	}
	b.cancelProbe() // no-op, must not panic
}

func TestBackendBudget(t *testing.T) {
	be := &backend{budget: 2}
	if !be.tryAcquire() || !be.tryAcquire() {
		t.Fatal("in-budget acquire refused")
	}
	if be.tryAcquire() {
		t.Fatal("over-budget acquire admitted")
	}
	be.release()
	if !be.tryAcquire() {
		t.Fatal("freed slot refused")
	}
}
