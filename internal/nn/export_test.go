package nn

// NewSlot is the output slot that turns a module's buffer reuse on, or
// nil, which turns it off.
var NewSlot = newSlot
