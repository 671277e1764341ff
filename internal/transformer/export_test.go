package transformer

// CrossRows returns decoder layer li's frozen cross-attention keys and
// values of the state as row-major copies, rows x dim each.
func (st *DecodeState) CrossRows(li int) (k, v []float64) {
	c := &st.cross[li]
	k, v = make([]float64, c.rows*c.dim), make([]float64, c.rows*c.dim)
	for j := 0; j < c.rows; j++ {
		for f := 0; f < c.dim; f++ {
			k[j*c.dim+f], v[j*c.dim+f] = c.key(j, f), c.value(j, f)
		}
	}
	return k, v
}

// SetAttentionReuse turns buffer reuse on or off on a lone attention
// block, as the models' SetBufferReuse does on every block.
func SetAttentionReuse(a *MultiHeadAttention, on bool) { a.useSlots(newSlots(on)) }
