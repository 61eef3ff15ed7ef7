// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_stencil_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[46]
	m0 := mems[0]
	v0 := vals[0]
	v5 := vals[5]
	v10 := vals[10]
	v17 := vals[17]
	v39 := vals[39]
	v43 := vals[43]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v30 uint64
		if v10 != 0x0 {
			v30 = 1
		}
		v31 := (v10 - 0x1) & 0x7f
		var v32 uint64
		if v30 != 0 {
			v32 = v31
		} else {
			v32 = v10
		}
		switch v0 {
		case 0x0:
			v44 := (v43 + 0x1) & 0xffffff
			v27 := v17
			v33 := v32
			v42 := v39
			v45 := v44
			n1 := v27
			n2 := v33
			n4 := v42
			n5 := v45
			v0 = 0x1
			v17 = n1
			v10 = n2
			v5 = 0x2
			v39 = n4
			v43 = n5
		case 0x1:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v29 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v29 = m0[addr] & 0x7f
			}
			var v35 uint64
			if v5 != 0x0 {
				v35 = 1
			}
			v36 := (v5 - 0x1) & 0x7
			var v37 uint64
			if v35 != 0 {
				v37 = v36
			} else {
				v37 = v5
			}
			v41 := (v39 + 0x1) & 0xffffff
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = 0x1
			}
			v25 := v8
			v26 := v25
			v27 := v17
			v28 := v6
			var v33 uint64
			if v28 != 0 {
				v33 = v29
			} else {
				v33 = v32
			}
			v38 := v37
			var v42 uint64
			if v28 != 0 {
				v42 = v41
			} else {
				v42 = v39
			}
			v45 := v43
			n0 := v26
			n1 := v27
			n2 := v33
			n3 := v38
			n4 := v42
			n5 := v45
			v0 = n0
			v17 = n1
			v10 = n2
			v5 = n3
			v39 = n4
			v43 = n5
		case 0x2:
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v35 uint64
			if v5 != 0x0 {
				v35 = 1
			}
			v36 := (v5 - 0x1) & 0x7
			var v37 uint64
			if v35 != 0 {
				v37 = v36
			} else {
				v37 = v5
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = 0x2
			}
			v24 := v14
			v25 := v24
			v26 := v25
			v27 := v17
			v33 := v32
			v38 := v37
			v42 := v39
			v45 := v43
			n0 := v26
			n1 := v27
			n2 := v33
			n3 := v38
			n4 := v42
			n5 := v45
			v0 = n0
			v17 = n1
			v10 = n2
			v5 = n3
			v39 = n4
			v43 = n5
		case 0x3:
			var v16 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0x7f
			}
			v19 := (v17 + 0x1) & 0x7f
			var v20 uint64
			if v16 <= v19 {
				v20 = 1
			}
			var v22 uint64
			if v20 != 0 {
				v22 = 0x4
			} else {
				v22 = 0x1
			}
			v44 := (v43 + 0x1) & 0xffffff
			v23 := v22
			v24 := v23
			v25 := v24
			v26 := v25
			v27 := v19
			v33 := v32
			v42 := v39
			v45 := v44
			n0 := v26
			n1 := v27
			n2 := v33
			n4 := v42
			n5 := v45
			v0 = n0
			v17 = n1
			v10 = n2
			v5 = 0x2
			v39 = n4
			v43 = n5
		case 0x4:
			break loop
		default:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v16 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0x7f
			}
			v19 := (v17 + 0x1) & 0x7f
			var v20 uint64
			if v16 <= v19 {
				v20 = 1
			}
			var v22 uint64
			if v20 != 0 {
				v22 = 0x4
			} else {
				v22 = 0x1
			}
			var v29 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v29 = m0[addr] & 0x7f
			}
			var v35 uint64
			if v5 != 0x0 {
				v35 = 1
			}
			v36 := (v5 - 0x1) & 0x7
			var v37 uint64
			if v35 != 0 {
				v37 = v36
			} else {
				v37 = v5
			}
			v41 := (v39 + 0x1) & 0xffffff
			v44 := (v43 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = v0
			}
			var v9 uint64
			if v0 == 0x2 {
				v9 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = v0
			}
			var v15 uint64
			if v0 == 0x3 {
				v15 = 1
			}
			var v23 uint64
			if v15 != 0 {
				v23 = v22
			} else {
				v23 = v0
			}
			var v24 uint64
			if v9 != 0 {
				v24 = v14
			} else {
				v24 = v23
			}
			var v25 uint64
			if v4 != 0 {
				v25 = v8
			} else {
				v25 = v24
			}
			var v26 uint64
			if v2 != 0 {
				v26 = 0x1
			} else {
				v26 = v25
			}
			var v27 uint64
			if v15 != 0 {
				v27 = v19
			} else {
				v27 = v17
			}
			v28 := v4 & v6
			var v33 uint64
			if v28 != 0 {
				v33 = v29
			} else {
				v33 = v32
			}
			v34 := (v2 | v15)
			var v38 uint64
			if v34 != 0 {
				v38 = 0x2
			} else {
				v38 = v37
			}
			var v42 uint64
			if v28 != 0 {
				v42 = v41
			} else {
				v42 = v39
			}
			var v45 uint64
			if v34 != 0 {
				v45 = v44
			} else {
				v45 = v43
			}
			var v46 uint64
			if v0 == 0x4 {
				v46 = 1
			}
			if v46 != 0 {
				break loop
			}
			n0 := v26
			n1 := v27
			n2 := v33
			n3 := v38
			n4 := v42
			n5 := v45
			v0 = n0
			v17 = n1
			v10 = n2
			v5 = n3
			v39 = n4
			v43 = n5
		}
	}
	vals[0] = v0
	vals[17] = v17
	vals[10] = v10
	vals[5] = v5
	vals[39] = v39
	vals[43] = v43
	var v6 uint64
	if v5 == 0x0 {
		v6 = 1
	}
	vals[6] = v6
	var v12 uint64
	if v10 == 0x0 {
		v12 = 1
	}
	vals[12] = v12
	var v16 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v16 = m0[addr] & 0x7f
	}
	vals[16] = v16
	v19 := (v17 + 0x1) & 0x7f
	vals[19] = v19
	var v20 uint64
	if v16 <= v19 {
		v20 = 1
	}
	vals[20] = v20
	var v22 uint64
	if v20 != 0 {
		v22 = 0x4
	} else {
		v22 = 0x1
	}
	vals[22] = v22
	var v29 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v29 = m0[addr] & 0x7f
	}
	vals[29] = v29
	var v30 uint64
	if v10 != 0x0 {
		v30 = 1
	}
	vals[30] = v30
	v31 := (v10 - 0x1) & 0x7f
	vals[31] = v31
	var v32 uint64
	if v30 != 0 {
		v32 = v31
	} else {
		v32 = v10
	}
	vals[32] = v32
	var v35 uint64
	if v5 != 0x0 {
		v35 = 1
	}
	vals[35] = v35
	v36 := (v5 - 0x1) & 0x7
	vals[36] = v36
	var v37 uint64
	if v35 != 0 {
		v37 = v36
	} else {
		v37 = v5
	}
	vals[37] = v37
	v41 := (v39 + 0x1) & 0xffffff
	vals[41] = v41
	v44 := (v43 + 0x1) & 0xffffff
	vals[44] = v44
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x0
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x0
		}
		vals[14] = v14
		vals[15] = 0x0
		vals[23] = 0x0
		vals[24] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		v27 := v17
		vals[27] = v27
		vals[28] = 0x0
		v33 := v32
		vals[33] = v33
		vals[34] = 0x1
		vals[38] = 0x2
		v42 := v39
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[46] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x1
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x1
		}
		vals[14] = v14
		vals[15] = 0x0
		vals[23] = 0x1
		vals[24] = 0x1
		v25 := v8
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v17
		vals[27] = v27
		v28 := v6
		vals[28] = v28
		var v33 uint64
		if v28 != 0 {
			v33 = v29
		} else {
			v33 = v32
		}
		vals[33] = v33
		vals[34] = 0x0
		v38 := v37
		vals[38] = v38
		var v42 uint64
		if v28 != 0 {
			v42 = v41
		} else {
			v42 = v39
		}
		vals[42] = v42
		v45 := v43
		vals[45] = v45
		vals[46] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x2
		}
		vals[8] = v8
		vals[9] = 0x1
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x2
		}
		vals[14] = v14
		vals[15] = 0x0
		vals[23] = 0x2
		v24 := v14
		vals[24] = v24
		v25 := v24
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v17
		vals[27] = v27
		vals[28] = 0x0
		v33 := v32
		vals[33] = v33
		vals[34] = 0x0
		v38 := v37
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		v45 := v43
		vals[45] = v45
		vals[46] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x3
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x3
		}
		vals[14] = v14
		vals[15] = 0x1
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v25 := v24
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v19
		vals[27] = v27
		vals[28] = 0x0
		v33 := v32
		vals[33] = v33
		vals[34] = 0x1
		vals[38] = 0x2
		v42 := v39
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[46] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x4
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x4
		}
		vals[14] = v14
		vals[15] = 0x0
		vals[23] = 0x4
		vals[24] = 0x4
		vals[25] = 0x4
		vals[26] = 0x4
		v27 := v17
		vals[27] = v27
		vals[28] = 0x0
		v33 := v32
		vals[33] = v33
		vals[34] = 0x0
		v38 := v37
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		v45 := v43
		vals[45] = v45
		vals[46] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = v0
		}
		vals[8] = v8
		var v9 uint64
		if v0 == 0x2 {
			v9 = 1
		}
		vals[9] = v9
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = v0
		}
		vals[14] = v14
		var v15 uint64
		if v0 == 0x3 {
			v15 = 1
		}
		vals[15] = v15
		var v23 uint64
		if v15 != 0 {
			v23 = v22
		} else {
			v23 = v0
		}
		vals[23] = v23
		var v24 uint64
		if v9 != 0 {
			v24 = v14
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v25 uint64
		if v4 != 0 {
			v25 = v8
		} else {
			v25 = v24
		}
		vals[25] = v25
		var v26 uint64
		if v2 != 0 {
			v26 = 0x1
		} else {
			v26 = v25
		}
		vals[26] = v26
		var v27 uint64
		if v15 != 0 {
			v27 = v19
		} else {
			v27 = v17
		}
		vals[27] = v27
		v28 := v4 & v6
		vals[28] = v28
		var v33 uint64
		if v28 != 0 {
			v33 = v29
		} else {
			v33 = v32
		}
		vals[33] = v33
		v34 := (v2 | v15)
		vals[34] = v34
		var v38 uint64
		if v34 != 0 {
			v38 = 0x2
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v42 uint64
		if v28 != 0 {
			v42 = v41
		} else {
			v42 = v39
		}
		vals[42] = v42
		var v45 uint64
		if v34 != 0 {
			v45 = v44
		} else {
			v45 = v43
		}
		vals[45] = v45
		var v46 uint64
		if v0 == 0x4 {
			v46 = 1
		}
		vals[46] = v46
	}
	done := vals[46] != 0
	l0 := vals[26] & 0x7
	l1 := vals[27] & 0x7f
	l2 := vals[33] & 0x7f
	l3 := vals[38] & 0x7
	l4 := vals[42] & 0xffffff
	l5 := vals[45] & 0xffffff
	vals[0] = l0
	vals[17] = l1
	vals[10] = l2
	vals[5] = l3
	vals[39] = l4
	vals[43] = l5
	return cycles + 1, done
}

func step_stencil_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[64]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v24 := vals[24]
	v28 := vals[28]
	v32 := vals[32]
	v33 := vals[33]
	v37 := vals[37]
	v40 := vals[40]
	v45 := vals[45]
	v50 := vals[50]
	v55 := vals[55]
	v60 := vals[60]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v35 := (v33 + 0x2) & 0xffffff
			v38 := (v37 + 0x1) & 0xffffff
			v62 := (v60 + 0x1) & 0xffffff
			v21 := v11
			v27 := v24
			v31 := v28
			v36 := v35
			v39 := v38
			v44 := v40
			v49 := v45
			v54 := v50
			v59 := v55
			v63 := v62
			n1 := v21
			n3 := v27
			n4 := v31
			n6 := v36
			n7 := v39
			n8 := v44
			n9 := v49
			n10 := v54
			n11 := v59
			n12 := v63
			v0 = 0x1
			v11 = n1
			v22 = 0x0
			v24 = n3
			v28 = n4
			v32 = 0x0
			v33 = n6
			v37 = n7
			v40 = n8
			v45 = n9
			v50 = n10
			v55 = n11
			v60 = n12
		case 0x1:
			var v25 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7f
			}
			v26 := (v24 + v25) & 0xffffff
			v30 := (v28 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v21 := v11
			v27 := v26
			v31 := v30
			v36 := v33
			v39 := v37
			v44 := v40
			v49 := v45
			v54 := v50
			v59 := v58
			v63 := v60
			n1 := v21
			n3 := v27
			n4 := v31
			n6 := v36
			n7 := v39
			n8 := v44
			n9 := v49
			n10 := v54
			n11 := v59
			n12 := v63
			v0 = 0x2
			v11 = n1
			v22 = 0x0
			v24 = n3
			v28 = n4
			v32 = 0x0
			v33 = n6
			v37 = n7
			v40 = n8
			v45 = n9
			v50 = n10
			v55 = n11
			v60 = n12
		case 0x2:
			v53 := (v50 + 0x1) & 0xffffff
			v21 := v11
			v27 := v24
			v31 := v28
			v36 := v33
			v39 := v37
			v44 := v40
			v49 := v45
			v54 := v53
			v59 := v55
			v63 := v60
			n1 := v21
			n3 := v27
			n4 := v31
			n6 := v36
			n7 := v39
			n8 := v44
			n9 := v49
			n10 := v54
			n11 := v59
			n12 := v63
			v0 = 0x3
			v11 = n1
			v22 = 0x0
			v24 = n3
			v28 = n4
			v32 = 0x0
			v33 = n6
			v37 = n7
			v40 = n8
			v45 = n9
			v50 = n10
			v55 = n11
			v60 = n12
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x7f
			}
			v13 := (v11 + 0x1) & 0x7f
			var v14 uint64
			if v10 <= v13 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x4
			} else {
				v16 = 0x1
			}
			v35 := (v33 + 0x2) & 0xffffff
			v38 := (v37 + 0x1) & 0xffffff
			v43 := (v40 + 0x1) & 0xffffff
			v48 := (v45 + 0x1) & 0xffffff
			v17 := v16
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v13
			v27 := v24
			v31 := v28
			v36 := v35
			v39 := v38
			var v41 uint64
			if v20 == 0x1 {
				v41 = 1
			}
			v42 := v41
			var v44 uint64
			if v42 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v46 uint64
			if v20 == 0x4 {
				v46 = 1
			}
			v47 := v46
			var v49 uint64
			if v47 != 0 {
				v49 = v48
			} else {
				v49 = v45
			}
			v54 := v50
			v59 := v55
			v63 := v60
			n0 := v20
			n1 := v21
			n3 := v27
			n4 := v31
			n6 := v36
			n7 := v39
			n8 := v44
			n9 := v49
			n10 := v54
			n11 := v59
			n12 := v63
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v28 = n4
			v32 = 0x0
			v33 = n6
			v37 = n7
			v40 = n8
			v45 = n9
			v50 = n10
			v55 = n11
			v60 = n12
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x7f
			}
			v13 := (v11 + 0x1) & 0x7f
			var v14 uint64
			if v10 <= v13 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x4
			} else {
				v16 = 0x1
			}
			var v25 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7f
			}
			v26 := (v24 + v25) & 0xffffff
			v30 := (v28 + 0x1) & 0xffffff
			v35 := (v33 + 0x2) & 0xffffff
			v38 := (v37 + 0x1) & 0xffffff
			v43 := (v40 + 0x1) & 0xffffff
			v48 := (v45 + 0x1) & 0xffffff
			v53 := (v50 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v62 := (v60 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v16
			} else {
				v17 = v0
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v13
			} else {
				v21 = v11
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v26
			} else {
				v27 = v24
			}
			var v31 uint64
			if v4 != 0 {
				v31 = v30
			} else {
				v31 = v28
			}
			v34 := (v2 | v8)
			var v36 uint64
			if v34 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			var v39 uint64
			if v34 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v41 uint64
			if v20 == 0x1 {
				v41 = 1
			}
			v42 := v8 & v41
			var v44 uint64
			if v42 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v46 uint64
			if v20 == 0x4 {
				v46 = 1
			}
			v47 := v8 & v46
			var v49 uint64
			if v47 != 0 {
				v49 = v48
			} else {
				v49 = v45
			}
			var v51 uint64
			if v20 == 0x3 {
				v51 = 1
			}
			v52 := v6 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v20 == 0x2 {
				v56 = 1
			}
			v57 := v4 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			v61 := v2 & v41
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v60
			}
			var v64 uint64
			if v0 == 0x4 {
				v64 = 1
			}
			if v64 != 0 {
				break loop
			}
			n0 := v20
			n1 := v21
			n3 := v27
			n4 := v31
			n6 := v36
			n7 := v39
			n8 := v44
			n9 := v49
			n10 := v54
			n11 := v59
			n12 := v63
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v28 = n4
			v32 = 0x0
			v33 = n6
			v37 = n7
			v40 = n8
			v45 = n9
			v50 = n10
			v55 = n11
			v60 = n12
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[24] = v24
	vals[28] = v28
	vals[32] = v32
	vals[33] = v33
	vals[37] = v37
	vals[40] = v40
	vals[45] = v45
	vals[50] = v50
	vals[55] = v55
	vals[60] = v60
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x7f
	}
	vals[10] = v10
	v13 := (v11 + 0x1) & 0x7f
	vals[13] = v13
	var v14 uint64
	if v10 <= v13 {
		v14 = 1
	}
	vals[14] = v14
	var v16 uint64
	if v14 != 0 {
		v16 = 0x4
	} else {
		v16 = 0x1
	}
	vals[16] = v16
	var v25 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0x7f
	}
	vals[25] = v25
	v26 := (v24 + v25) & 0xffffff
	vals[26] = v26
	v30 := (v28 + 0x1) & 0xffffff
	vals[30] = v30
	v35 := (v33 + 0x2) & 0xffffff
	vals[35] = v35
	v38 := (v37 + 0x1) & 0xffffff
	vals[38] = v38
	v43 := (v40 + 0x1) & 0xffffff
	vals[43] = v43
	v48 := (v45 + 0x1) & 0xffffff
	vals[48] = v48
	v53 := (v50 + 0x1) & 0xffffff
	vals[53] = v53
	v58 := (v55 + 0x1) & 0xffffff
	vals[58] = v58
	v62 := (v60 + 0x1) & 0xffffff
	vals[62] = v62
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		v21 := v11
		vals[21] = v21
		v27 := v24
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		vals[34] = 0x1
		v36 := v35
		vals[36] = v36
		v39 := v38
		vals[39] = v39
		vals[41] = 0x1
		vals[42] = 0x0
		v44 := v40
		vals[44] = v44
		vals[46] = 0x0
		vals[47] = 0x0
		v49 := v45
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x1
		v63 := v62
		vals[63] = v63
		vals[64] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		v21 := v11
		vals[21] = v21
		v27 := v26
		vals[27] = v27
		v31 := v30
		vals[31] = v31
		vals[34] = 0x0
		v36 := v33
		vals[36] = v36
		v39 := v37
		vals[39] = v39
		vals[41] = 0x0
		vals[42] = 0x0
		v44 := v40
		vals[44] = v44
		vals[46] = 0x0
		vals[47] = 0x0
		v49 := v45
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x1
		vals[57] = 0x1
		v59 := v58
		vals[59] = v59
		vals[61] = 0x0
		v63 := v60
		vals[63] = v63
		vals[64] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		v21 := v11
		vals[21] = v21
		v27 := v24
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		vals[34] = 0x0
		v36 := v33
		vals[36] = v36
		v39 := v37
		vals[39] = v39
		vals[41] = 0x0
		vals[42] = 0x0
		v44 := v40
		vals[44] = v44
		vals[46] = 0x0
		vals[47] = 0x0
		v49 := v45
		vals[49] = v49
		vals[51] = 0x1
		vals[52] = 0x1
		v54 := v53
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		v63 := v60
		vals[63] = v63
		vals[64] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v13
		vals[21] = v21
		v27 := v24
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		vals[34] = 0x1
		v36 := v35
		vals[36] = v36
		v39 := v38
		vals[39] = v39
		var v41 uint64
		if v20 == 0x1 {
			v41 = 1
		}
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		var v44 uint64
		if v42 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v46 uint64
		if v20 == 0x4 {
			v46 = 1
		}
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		var v49 uint64
		if v47 != 0 {
			v49 = v48
		} else {
			v49 = v45
		}
		vals[49] = v49
		var v51 uint64
		if v20 == 0x3 {
			v51 = 1
		}
		vals[51] = v51
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		var v56 uint64
		if v20 == 0x2 {
			v56 = 1
		}
		vals[56] = v56
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		v63 := v60
		vals[63] = v63
		vals[64] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x4
		vals[18] = 0x4
		vals[19] = 0x4
		vals[20] = 0x4
		v21 := v11
		vals[21] = v21
		v27 := v24
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		vals[34] = 0x0
		v36 := v33
		vals[36] = v36
		v39 := v37
		vals[39] = v39
		vals[41] = 0x0
		vals[42] = 0x0
		v44 := v40
		vals[44] = v44
		vals[46] = 0x1
		vals[47] = 0x0
		v49 := v45
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		v63 := v60
		vals[63] = v63
		vals[64] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v17 uint64
		if v8 != 0 {
			v17 = v16
		} else {
			v17 = v0
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = v13
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v27 uint64
		if v4 != 0 {
			v27 = v26
		} else {
			v27 = v24
		}
		vals[27] = v27
		var v31 uint64
		if v4 != 0 {
			v31 = v30
		} else {
			v31 = v28
		}
		vals[31] = v31
		v34 := (v2 | v8)
		vals[34] = v34
		var v36 uint64
		if v34 != 0 {
			v36 = v35
		} else {
			v36 = v33
		}
		vals[36] = v36
		var v39 uint64
		if v34 != 0 {
			v39 = v38
		} else {
			v39 = v37
		}
		vals[39] = v39
		var v41 uint64
		if v20 == 0x1 {
			v41 = 1
		}
		vals[41] = v41
		v42 := v8 & v41
		vals[42] = v42
		var v44 uint64
		if v42 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v46 uint64
		if v20 == 0x4 {
			v46 = 1
		}
		vals[46] = v46
		v47 := v8 & v46
		vals[47] = v47
		var v49 uint64
		if v47 != 0 {
			v49 = v48
		} else {
			v49 = v45
		}
		vals[49] = v49
		var v51 uint64
		if v20 == 0x3 {
			v51 = 1
		}
		vals[51] = v51
		v52 := v6 & v51
		vals[52] = v52
		var v54 uint64
		if v52 != 0 {
			v54 = v53
		} else {
			v54 = v50
		}
		vals[54] = v54
		var v56 uint64
		if v20 == 0x2 {
			v56 = 1
		}
		vals[56] = v56
		v57 := v4 & v56
		vals[57] = v57
		var v59 uint64
		if v57 != 0 {
			v59 = v58
		} else {
			v59 = v55
		}
		vals[59] = v59
		v61 := v2 & v41
		vals[61] = v61
		var v63 uint64
		if v61 != 0 {
			v63 = v62
		} else {
			v63 = v60
		}
		vals[63] = v63
		var v64 uint64
		if v0 == 0x4 {
			v64 = 1
		}
		vals[64] = v64
	}
	done := vals[64] != 0
	l0 := vals[20] & 0x7
	l1 := vals[21] & 0x7f
	l2 := vals[23] & 0xffffff
	l3 := vals[27] & 0xffffff
	l4 := vals[31] & 0xffffff
	l5 := vals[23] & 0xffffff
	l6 := vals[36] & 0xffffff
	l7 := vals[39] & 0xffffff
	l8 := vals[44] & 0xffffff
	l9 := vals[49] & 0xffffff
	l10 := vals[54] & 0xffffff
	l11 := vals[59] & 0xffffff
	l12 := vals[63] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	vals[24] = l3
	vals[28] = l4
	vals[32] = l5
	vals[33] = l6
	vals[37] = l7
	vals[40] = l8
	vals[45] = l9
	vals[50] = l10
	vals[55] = l11
	vals[60] = l12
	return cycles + 1, done
}

func step_stencil_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[52]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v26 := vals[26]
	v30 := vals[30]
	v34 := vals[34]
	v37 := vals[37]
	v42 := vals[42]
	v47 := vals[47]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v32 := (v30 + 0x2) & 0xffffff
			v35 := (v34 + 0x1) & 0xffffff
			v21 := v11
			v25 := v22
			v29 := v26
			v33 := v32
			v36 := v35
			v41 := v37
			v46 := v42
			v51 := v47
			n1 := v21
			n2 := v25
			n3 := v29
			n4 := v33
			n5 := v36
			n6 := v41
			n7 := v46
			n8 := v51
			v0 = 0x1
			v11 = n1
			v22 = n2
			v26 = n3
			v30 = n4
			v34 = n5
			v37 = n6
			v42 = n7
			v47 = n8
		case 0x1:
			var v23 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7f
			}
			v24 := (v22 + v23) & 0xffffff
			v28 := (v26 + 0x1) & 0xffffff
			v50 := (v47 + 0x1) & 0xffffff
			v21 := v11
			v25 := v24
			v29 := v28
			v33 := v30
			v36 := v34
			v41 := v37
			v46 := v42
			v51 := v50
			n1 := v21
			n2 := v25
			n3 := v29
			n4 := v33
			n5 := v36
			n6 := v41
			n7 := v46
			n8 := v51
			v0 = 0x2
			v11 = n1
			v22 = n2
			v26 = n3
			v30 = n4
			v34 = n5
			v37 = n6
			v42 = n7
			v47 = n8
		case 0x2:
			v45 := (v42 + 0x1) & 0xffffff
			v21 := v11
			v25 := v22
			v29 := v26
			v33 := v30
			v36 := v34
			v41 := v37
			v46 := v45
			v51 := v47
			n1 := v21
			n2 := v25
			n3 := v29
			n4 := v33
			n5 := v36
			n6 := v41
			n7 := v46
			n8 := v51
			v0 = 0x3
			v11 = n1
			v22 = n2
			v26 = n3
			v30 = n4
			v34 = n5
			v37 = n6
			v42 = n7
			v47 = n8
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x7f
			}
			v13 := (v11 + 0x1) & 0x7f
			var v14 uint64
			if v10 <= v13 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x4
			} else {
				v16 = 0x1
			}
			v32 := (v30 + 0x2) & 0xffffff
			v35 := (v34 + 0x1) & 0xffffff
			v40 := (v37 + 0x1) & 0xffffff
			v17 := v16
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v13
			v25 := v22
			v29 := v26
			v33 := v32
			v36 := v35
			var v38 uint64
			if v20 == 0x1 {
				v38 = 1
			}
			v39 := v38
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			v46 := v42
			v51 := v47
			n0 := v20
			n1 := v21
			n2 := v25
			n3 := v29
			n4 := v33
			n5 := v36
			n6 := v41
			n7 := v46
			n8 := v51
			v0 = n0
			v11 = n1
			v22 = n2
			v26 = n3
			v30 = n4
			v34 = n5
			v37 = n6
			v42 = n7
			v47 = n8
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x7f
			}
			v13 := (v11 + 0x1) & 0x7f
			var v14 uint64
			if v10 <= v13 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x4
			} else {
				v16 = 0x1
			}
			var v23 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7f
			}
			v24 := (v22 + v23) & 0xffffff
			v28 := (v26 + 0x1) & 0xffffff
			v32 := (v30 + 0x2) & 0xffffff
			v35 := (v34 + 0x1) & 0xffffff
			v40 := (v37 + 0x1) & 0xffffff
			v45 := (v42 + 0x1) & 0xffffff
			v50 := (v47 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v16
			} else {
				v17 = v0
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v13
			} else {
				v21 = v11
			}
			var v25 uint64
			if v4 != 0 {
				v25 = v24
			} else {
				v25 = v22
			}
			var v29 uint64
			if v4 != 0 {
				v29 = v28
			} else {
				v29 = v26
			}
			v31 := (v2 | v8)
			var v33 uint64
			if v31 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v36 uint64
			if v31 != 0 {
				v36 = v35
			} else {
				v36 = v34
			}
			var v38 uint64
			if v20 == 0x1 {
				v38 = 1
			}
			v39 := v8 & v38
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v43 uint64
			if v20 == 0x3 {
				v43 = 1
			}
			v44 := v6 & v43
			var v46 uint64
			if v44 != 0 {
				v46 = v45
			} else {
				v46 = v42
			}
			var v48 uint64
			if v20 == 0x2 {
				v48 = 1
			}
			v49 := v4 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v52 uint64
			if v0 == 0x4 {
				v52 = 1
			}
			if v52 != 0 {
				break loop
			}
			n0 := v20
			n1 := v21
			n2 := v25
			n3 := v29
			n4 := v33
			n5 := v36
			n6 := v41
			n7 := v46
			n8 := v51
			v0 = n0
			v11 = n1
			v22 = n2
			v26 = n3
			v30 = n4
			v34 = n5
			v37 = n6
			v42 = n7
			v47 = n8
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[26] = v26
	vals[30] = v30
	vals[34] = v34
	vals[37] = v37
	vals[42] = v42
	vals[47] = v47
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x7f
	}
	vals[10] = v10
	v13 := (v11 + 0x1) & 0x7f
	vals[13] = v13
	var v14 uint64
	if v10 <= v13 {
		v14 = 1
	}
	vals[14] = v14
	var v16 uint64
	if v14 != 0 {
		v16 = 0x4
	} else {
		v16 = 0x1
	}
	vals[16] = v16
	var v23 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v23 = m0[addr] & 0x7f
	}
	vals[23] = v23
	v24 := (v22 + v23) & 0xffffff
	vals[24] = v24
	v28 := (v26 + 0x1) & 0xffffff
	vals[28] = v28
	v32 := (v30 + 0x2) & 0xffffff
	vals[32] = v32
	v35 := (v34 + 0x1) & 0xffffff
	vals[35] = v35
	v40 := (v37 + 0x1) & 0xffffff
	vals[40] = v40
	v45 := (v42 + 0x1) & 0xffffff
	vals[45] = v45
	v50 := (v47 + 0x1) & 0xffffff
	vals[50] = v50
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		v21 := v11
		vals[21] = v21
		v25 := v22
		vals[25] = v25
		v29 := v26
		vals[29] = v29
		vals[31] = 0x1
		v33 := v32
		vals[33] = v33
		v36 := v35
		vals[36] = v36
		vals[38] = 0x1
		vals[39] = 0x0
		v41 := v37
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x0
		v46 := v42
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[52] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		v21 := v11
		vals[21] = v21
		v25 := v24
		vals[25] = v25
		v29 := v28
		vals[29] = v29
		vals[31] = 0x0
		v33 := v30
		vals[33] = v33
		v36 := v34
		vals[36] = v36
		vals[38] = 0x0
		vals[39] = 0x0
		v41 := v37
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x0
		v46 := v42
		vals[46] = v46
		vals[48] = 0x1
		vals[49] = 0x1
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		v21 := v11
		vals[21] = v21
		v25 := v22
		vals[25] = v25
		v29 := v26
		vals[29] = v29
		vals[31] = 0x0
		v33 := v30
		vals[33] = v33
		v36 := v34
		vals[36] = v36
		vals[38] = 0x0
		vals[39] = 0x0
		v41 := v37
		vals[41] = v41
		vals[43] = 0x1
		vals[44] = 0x1
		v46 := v45
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[52] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v13
		vals[21] = v21
		v25 := v22
		vals[25] = v25
		v29 := v26
		vals[29] = v29
		vals[31] = 0x1
		v33 := v32
		vals[33] = v33
		v36 := v35
		vals[36] = v36
		var v38 uint64
		if v20 == 0x1 {
			v38 = 1
		}
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		var v41 uint64
		if v39 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v43 uint64
		if v20 == 0x3 {
			v43 = 1
		}
		vals[43] = v43
		vals[44] = 0x0
		v46 := v42
		vals[46] = v46
		var v48 uint64
		if v20 == 0x2 {
			v48 = 1
		}
		vals[48] = v48
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[52] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[17] = 0x4
		vals[18] = 0x4
		vals[19] = 0x4
		vals[20] = 0x4
		v21 := v11
		vals[21] = v21
		v25 := v22
		vals[25] = v25
		v29 := v26
		vals[29] = v29
		vals[31] = 0x0
		v33 := v30
		vals[33] = v33
		v36 := v34
		vals[36] = v36
		vals[38] = 0x0
		vals[39] = 0x0
		v41 := v37
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x0
		v46 := v42
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[52] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v17 uint64
		if v8 != 0 {
			v17 = v16
		} else {
			v17 = v0
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = v13
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v25 uint64
		if v4 != 0 {
			v25 = v24
		} else {
			v25 = v22
		}
		vals[25] = v25
		var v29 uint64
		if v4 != 0 {
			v29 = v28
		} else {
			v29 = v26
		}
		vals[29] = v29
		v31 := (v2 | v8)
		vals[31] = v31
		var v33 uint64
		if v31 != 0 {
			v33 = v32
		} else {
			v33 = v30
		}
		vals[33] = v33
		var v36 uint64
		if v31 != 0 {
			v36 = v35
		} else {
			v36 = v34
		}
		vals[36] = v36
		var v38 uint64
		if v20 == 0x1 {
			v38 = 1
		}
		vals[38] = v38
		v39 := v8 & v38
		vals[39] = v39
		var v41 uint64
		if v39 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v43 uint64
		if v20 == 0x3 {
			v43 = 1
		}
		vals[43] = v43
		v44 := v6 & v43
		vals[44] = v44
		var v46 uint64
		if v44 != 0 {
			v46 = v45
		} else {
			v46 = v42
		}
		vals[46] = v46
		var v48 uint64
		if v20 == 0x2 {
			v48 = 1
		}
		vals[48] = v48
		v49 := v4 & v48
		vals[49] = v49
		var v51 uint64
		if v49 != 0 {
			v51 = v50
		} else {
			v51 = v47
		}
		vals[51] = v51
		var v52 uint64
		if v0 == 0x4 {
			v52 = 1
		}
		vals[52] = v52
	}
	done := vals[52] != 0
	l0 := vals[20] & 0x7
	l1 := vals[21] & 0x7f
	l2 := vals[25] & 0xffffff
	l3 := vals[29] & 0xffffff
	l4 := vals[33] & 0xffffff
	l5 := vals[36] & 0xffffff
	l6 := vals[41] & 0xffffff
	l7 := vals[46] & 0xffffff
	l8 := vals[51] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	vals[26] = l3
	vals[30] = l4
	vals[34] = l5
	vals[37] = l6
	vals[42] = l7
	vals[47] = l8
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("40080459c7753f5e0d230bf375cbd5aa3812bf6c423a9bd0d9983ae1325f5f8c", "stencil_cone", step_stencil_cone)
	rtl.RegisterNative("78ad64c70e827f8f73f19df51cedfef177b31472078509f2e51d99a86712f57f", "stencil_slice_all", step_stencil_slice_all)
	rtl.RegisterNative("cbe54fb5e215dd9d7ce8c0b9050041a06210d68fe146ed654cc6f795db375526", "stencil_slice_t42", step_stencil_slice_t42)
}
