//go:build amd64 && !purego

#include "textflag.h"

// func spinPause()
TEXT ·spinPause(SB), NOSPLIT, $0-0
	PAUSE
	RET
