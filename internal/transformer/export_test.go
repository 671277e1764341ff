package transformer

// CrossRows returns decoder layer li's frozen cross-attention keys and
// values of the state as row-major copies, rows x dim each.
func (st *DecodeState) CrossRows(li int) (k, v []float64) {
	c := &st.cross[li]
	k = make([]float64, c.rows*c.dim)
	for j := 0; j < c.rows; j++ {
		for f := 0; f < c.dim; f++ {
			k[j*c.dim+f] = c.k[f*c.capRows+j]
		}
	}
	return k, append([]float64(nil), c.v[:c.rows*c.dim]...)
}
