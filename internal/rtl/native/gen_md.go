// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_md_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[38]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v15 := vals[15]
	v34 := vals[34]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v25 := v15
			v33 := v32
			v37 := v34
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = 0x1
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x1:
			var v26 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			v36 := (v34 + 0x1) & 0xffffff
			v25 := v15
			v33 := v28
			v37 := v36
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = 0x2
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v20 := v11
			v21 := v20
			v22 := v21
			v25 := v15
			v33 := v32
			v37 := v34
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x3:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x1ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x4
			} else {
				v18 = 0x1
			}
			v24 := (v15 + 0x1) & 0x1ff
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v25 := v24
			v33 := v32
			v37 := v34
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x4:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x1ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x4
			} else {
				v18 = 0x1
			}
			v24 := (v15 + 0x1) & 0x1ff
			var v26 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v36 := (v34 + 0x1) & 0xffffff
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
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = v0
			}
			var v12 uint64
			if v0 == 0x3 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v6 != 0 {
				v20 = v11
			} else {
				v20 = v19
			}
			var v21 uint64
			if v4 != 0 {
				v21 = 0x2
			} else {
				v21 = v20
			}
			var v22 uint64
			if v2 != 0 {
				v22 = 0x1
			} else {
				v22 = v21
			}
			var v25 uint64
			if v12 != 0 {
				v25 = v24
			} else {
				v25 = v15
			}
			var v33 uint64
			if v4 != 0 {
				v33 = v28
			} else {
				v33 = v32
			}
			var v37 uint64
			if v4 != 0 {
				v37 = v36
			} else {
				v37 = v34
			}
			var v38 uint64
			if v0 == 0x4 {
				v38 = 1
			}
			if v38 != 0 {
				break loop
			}
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[7] = v7
	vals[34] = v34
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x1ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x4
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v24 := (v15 + 0x1) & 0x1ff
	vals[24] = v24
	var v26 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7fffff
	}
	vals[26] = v26
	v28 := v26 & 0x7f
	vals[28] = v28
	var v29 uint64
	if v7 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v31 := (v7 - 0x1) & 0x7f
	vals[31] = v31
	var v32 uint64
	if v29 != 0 {
		v32 = v31
	} else {
		v32 = v7
	}
	vals[32] = v32
	v36 := (v34 + 0x1) & 0xffffff
	vals[36] = v36
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x0
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x1
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x1
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x2
		vals[22] = 0x2
		v25 := v15
		vals[25] = v25
		v33 := v28
		vals[33] = v33
		v37 := v36
		vals[37] = v37
		vals[38] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x2
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x2
		v20 := v11
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x3
		}
		vals[11] = v11
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v25 := v24
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x4
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x1
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
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = v0
		}
		vals[11] = v11
		var v12 uint64
		if v0 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v18
		} else {
			v19 = v0
		}
		vals[19] = v19
		var v20 uint64
		if v6 != 0 {
			v20 = v11
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v4 != 0 {
			v21 = 0x2
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v2 != 0 {
			v22 = 0x1
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v25 uint64
		if v12 != 0 {
			v25 = v24
		} else {
			v25 = v15
		}
		vals[25] = v25
		var v33 uint64
		if v4 != 0 {
			v33 = v28
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v37 uint64
		if v4 != 0 {
			v37 = v36
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v38 uint64
		if v0 == 0x4 {
			v38 = 1
		}
		vals[38] = v38
	}
	done := vals[38] != 0
	l0 := vals[22] & 0x7
	l1 := vals[25] & 0x1ff
	l2 := vals[33] & 0x7f
	l3 := vals[37] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[7] = l2
	vals[34] = l3
	return cycles + 1, done
}

func step_md_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[58]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v24 := vals[24]
	v30 := vals[30]
	v34 := vals[34]
	v39 := vals[39]
	v44 := vals[44]
	v49 := vals[49]
	v54 := vals[54]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v56 := (v54 + 0x1) & 0xffffff
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v49
			v57 := v56
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x1
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x1:
			var v25 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7fffff
			}
			v27 := v25 & 0x7f
			v28 := (v24 + v27) & 0xffffff
			v32 := (v30 + 0x1) & 0xffffff
			v52 := (v49 + 0x1) & 0xffffff
			v21 := v11
			v29 := v28
			v33 := v32
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v52
			v57 := v54
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x2
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x2:
			v47 := (v44 + 0x1) & 0xffffff
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v47
			v53 := v49
			v57 := v54
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x3
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			v37 := (v34 + 0x1) & 0xffffff
			v42 := (v39 + 0x1) & 0xffffff
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v29 := v24
			v33 := v30
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			v48 := v44
			v53 := v49
			v57 := v54
			n0 := v18
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			var v25 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7fffff
			}
			v27 := v25 & 0x7f
			v28 := (v24 + v27) & 0xffffff
			v32 := (v30 + 0x1) & 0xffffff
			v37 := (v34 + 0x1) & 0xffffff
			v42 := (v39 + 0x1) & 0xffffff
			v47 := (v44 + 0x1) & 0xffffff
			v52 := (v49 + 0x1) & 0xffffff
			v56 := (v54 + 0x1) & 0xffffff
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
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v29 uint64
			if v4 != 0 {
				v29 = v28
			} else {
				v29 = v24
			}
			var v33 uint64
			if v4 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := v8 & v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := v8 & v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			var v45 uint64
			if v18 == 0x3 {
				v45 = 1
			}
			v46 := v6 & v45
			var v48 uint64
			if v46 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v50 uint64
			if v18 == 0x2 {
				v50 = 1
			}
			v51 := v4 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			v55 := v2 & v35
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			var v58 uint64
			if v0 == 0x4 {
				v58 = 1
			}
			if v58 != 0 {
				break loop
			}
			n0 := v18
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[24] = v24
	vals[30] = v30
	vals[34] = v34
	vals[39] = v39
	vals[44] = v44
	vals[49] = v49
	vals[54] = v54
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x1ff
	}
	vals[10] = v10
	var v12 uint64
	if v10 <= v11 {
		v12 = 1
	}
	vals[12] = v12
	var v14 uint64
	if v12 != 0 {
		v14 = 0x4
	} else {
		v14 = 0x1
	}
	vals[14] = v14
	v20 := (v11 + 0x1) & 0x1ff
	vals[20] = v20
	var v25 uint64
	if addr := uint64(v11); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0x7fffff
	}
	vals[25] = v25
	v27 := v25 & 0x7f
	vals[27] = v27
	v28 := (v24 + v27) & 0xffffff
	vals[28] = v28
	v32 := (v30 + 0x1) & 0xffffff
	vals[32] = v32
	v37 := (v34 + 0x1) & 0xffffff
	vals[37] = v37
	v42 := (v39 + 0x1) & 0xffffff
	vals[42] = v42
	v47 := (v44 + 0x1) & 0xffffff
	vals[47] = v47
	v52 := (v49 + 0x1) & 0xffffff
	vals[52] = v52
	v56 := (v54 + 0x1) & 0xffffff
	vals[56] = v56
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x1
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x1
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x1
		v57 := v56
		vals[57] = v57
		vals[58] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x1
		vals[16] = 0x1
		vals[17] = 0x2
		vals[18] = 0x2
		v21 := v11
		vals[21] = v21
		v29 := v28
		vals[29] = v29
		v33 := v32
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x1
		vals[51] = 0x1
		v53 := v52
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[15] = 0x2
		vals[16] = 0x3
		vals[17] = 0x3
		vals[18] = 0x3
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x1
		vals[46] = 0x1
		v48 := v47
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v15 := v14
		vals[15] = v15
		v16 := v15
		vals[16] = v16
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v21 := v20
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		var v35 uint64
		if v18 == 0x1 {
			v35 = 1
		}
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		var v38 uint64
		if v36 != 0 {
			v38 = v37
		} else {
			v38 = v34
		}
		vals[38] = v38
		var v40 uint64
		if v18 == 0x4 {
			v40 = 1
		}
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		var v43 uint64
		if v41 != 0 {
			v43 = v42
		} else {
			v43 = v39
		}
		vals[43] = v43
		var v45 uint64
		if v18 == 0x3 {
			v45 = 1
		}
		vals[45] = v45
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		var v50 uint64
		if v18 == 0x2 {
			v50 = 1
		}
		vals[50] = v50
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x4
		vals[16] = 0x4
		vals[17] = 0x4
		vals[18] = 0x4
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x1
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x1
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
		var v15 uint64
		if v8 != 0 {
			v15 = v14
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v6 != 0 {
			v16 = 0x3
		} else {
			v16 = v15
		}
		vals[16] = v16
		var v17 uint64
		if v4 != 0 {
			v17 = 0x2
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v2 != 0 {
			v18 = 0x1
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v21 uint64
		if v8 != 0 {
			v21 = v20
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v29 uint64
		if v4 != 0 {
			v29 = v28
		} else {
			v29 = v24
		}
		vals[29] = v29
		var v33 uint64
		if v4 != 0 {
			v33 = v32
		} else {
			v33 = v30
		}
		vals[33] = v33
		var v35 uint64
		if v18 == 0x1 {
			v35 = 1
		}
		vals[35] = v35
		v36 := v8 & v35
		vals[36] = v36
		var v38 uint64
		if v36 != 0 {
			v38 = v37
		} else {
			v38 = v34
		}
		vals[38] = v38
		var v40 uint64
		if v18 == 0x4 {
			v40 = 1
		}
		vals[40] = v40
		v41 := v8 & v40
		vals[41] = v41
		var v43 uint64
		if v41 != 0 {
			v43 = v42
		} else {
			v43 = v39
		}
		vals[43] = v43
		var v45 uint64
		if v18 == 0x3 {
			v45 = 1
		}
		vals[45] = v45
		v46 := v6 & v45
		vals[46] = v46
		var v48 uint64
		if v46 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v50 uint64
		if v18 == 0x2 {
			v50 = 1
		}
		vals[50] = v50
		v51 := v4 & v50
		vals[51] = v51
		var v53 uint64
		if v51 != 0 {
			v53 = v52
		} else {
			v53 = v49
		}
		vals[53] = v53
		v55 := v2 & v35
		vals[55] = v55
		var v57 uint64
		if v55 != 0 {
			v57 = v56
		} else {
			v57 = v54
		}
		vals[57] = v57
		var v58 uint64
		if v0 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
	}
	done := vals[58] != 0
	l0 := vals[18] & 0x7
	l1 := vals[21] & 0x1ff
	l2 := vals[23] & 0xffffff
	l3 := vals[29] & 0xffffff
	l4 := vals[33] & 0xffffff
	l5 := vals[38] & 0xffffff
	l6 := vals[43] & 0xffffff
	l7 := vals[48] & 0xffffff
	l8 := vals[53] & 0xffffff
	l9 := vals[57] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	vals[24] = l3
	vals[30] = l4
	vals[34] = l5
	vals[39] = l6
	vals[44] = l7
	vals[49] = l8
	vals[54] = l9
	return cycles + 1, done
}

func step_md_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[28]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v21 := v11
			v27 := v22
			n1 := v21
			n2 := v27
			v0 = 0x1
			v11 = n1
			v22 = n2
		case 0x1:
			var v23 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7fffff
			}
			v25 := v23 & 0x7f
			v26 := (v22 + v25) & 0xffffff
			v21 := v11
			v27 := v26
			n1 := v21
			n2 := v27
			v0 = 0x2
			v11 = n1
			v22 = n2
		case 0x2:
			v21 := v11
			v27 := v22
			n1 := v21
			n2 := v27
			v0 = 0x3
			v11 = n1
			v22 = n2
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v27 := v22
			n0 := v18
			n1 := v21
			n2 := v27
			v0 = n0
			v11 = n1
			v22 = n2
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			var v23 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7fffff
			}
			v25 := v23 & 0x7f
			v26 := (v22 + v25) & 0xffffff
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
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v26
			} else {
				v27 = v22
			}
			var v28 uint64
			if v0 == 0x4 {
				v28 = 1
			}
			if v28 != 0 {
				break loop
			}
			n0 := v18
			n1 := v21
			n2 := v27
			v0 = n0
			v11 = n1
			v22 = n2
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x1ff
	}
	vals[10] = v10
	var v12 uint64
	if v10 <= v11 {
		v12 = 1
	}
	vals[12] = v12
	var v14 uint64
	if v12 != 0 {
		v14 = 0x4
	} else {
		v14 = 0x1
	}
	vals[14] = v14
	v20 := (v11 + 0x1) & 0x1ff
	vals[20] = v20
	var v23 uint64
	if addr := uint64(v11); addr < uint64(len(m0)) {
		v23 = m0[addr] & 0x7fffff
	}
	vals[23] = v23
	v25 := v23 & 0x7f
	vals[25] = v25
	v26 := (v22 + v25) & 0xffffff
	vals[26] = v26
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x1
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x1
		vals[16] = 0x1
		vals[17] = 0x2
		vals[18] = 0x2
		v21 := v11
		vals[21] = v21
		v27 := v26
		vals[27] = v27
		vals[28] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[15] = 0x2
		vals[16] = 0x3
		vals[17] = 0x3
		vals[18] = 0x3
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v15 := v14
		vals[15] = v15
		v16 := v15
		vals[16] = v16
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v21 := v20
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x4
		vals[16] = 0x4
		vals[17] = 0x4
		vals[18] = 0x4
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x1
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
		var v15 uint64
		if v8 != 0 {
			v15 = v14
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v6 != 0 {
			v16 = 0x3
		} else {
			v16 = v15
		}
		vals[16] = v16
		var v17 uint64
		if v4 != 0 {
			v17 = 0x2
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v2 != 0 {
			v18 = 0x1
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v21 uint64
		if v8 != 0 {
			v21 = v20
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v27 uint64
		if v4 != 0 {
			v27 = v26
		} else {
			v27 = v22
		}
		vals[27] = v27
		var v28 uint64
		if v0 == 0x4 {
			v28 = 1
		}
		vals[28] = v28
	}
	done := vals[28] != 0
	l0 := vals[18] & 0x7
	l1 := vals[21] & 0x1ff
	l2 := vals[27] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("3d5f803f1279c3c300160a2cb66a57b94232d703f6d490ea214965954ed06327", "md_cone", step_md_cone)
	rtl.RegisterNative("8ad7a0606b801a145109b1f8a3fc057a4974fa5a36349f61ef2a4947f1c67b2a", "md_slice_all", step_md_slice_all)
	rtl.RegisterNative("dea19e0260931bacd423fd7f3db8ffd5b185d4fe6b5dbaea3c873e975387bbd9", "md_slice_t42", step_md_slice_t42)
}
