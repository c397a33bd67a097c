// Fixture for the walltime analyzer. Every host-clock read must be
// flagged; pure constructors and conversions must not be.
package walltime

import "time"

func leak() time.Duration {
	start := time.Now()          // want `time\.Now reads the host clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the host clock`
	return time.Since(start)     // want `time\.Since reads the host clock`
}

func wait(done chan struct{}) {
	select {
	case <-done:
	case <-time.After(time.Second): // want `time\.After reads the host clock`
	}
}

func pure() time.Duration {
	d, err := time.ParseDuration("3ms")
	if err != nil {
		return 2 * time.Millisecond
	}
	return d
}
