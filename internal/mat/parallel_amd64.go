//go:build amd64 && !purego

package mat

// spinPause is one PAUSE: the polling loops of the executor run it
// between two looks, so a spinning helper leaves the core's execution
// units (and, on a hyperthreaded host, its sibling) alone.
func spinPause()
