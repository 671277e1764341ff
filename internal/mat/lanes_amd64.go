//go:build amd64 && !purego

package mat

// laneKern8AVX runs one column group (steps >= 1 interleaved steps of
// LaneGroup weights) against one 8-lane xt block and scatters the first
// rows rows of the result into c (row stride ldc) at the group's
// LaneGroup columns cols (lanes_amd64.s). Needs AVX and FMA3;
// bit-identical to laneKernGo.
//
//go:noescape
func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)

// laneKern16Z is laneKern8AVX over a 16-lane xt block (rows <= 16),
// laneKern8Z over the same 8-lane block in one ZMM register per column;
// both need AVX-512F (laneGate).
//
//go:noescape
func laneKern16Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)

//go:noescape
func laneKern8Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)

// packLanes8Z writes lanes [0, 8) of the first kn rows of a lane-major
// block, xt[k*lanes+l] = x[min(l, rows-1)*K+k], for kn a positive
// multiple of 8 and 1 <= rows <= 8 (lanes_amd64.s). Needs AVX-512F.
//
//go:noescape
func packLanes8Z(xt, x *float64, K, lanes, rows, kn int)
