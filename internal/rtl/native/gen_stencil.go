// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_stencil(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[86]
	m0 := mems[0]
	m1 := mems[1]
	v4 := vals[4]
	v8 := vals[8]
	v15 := vals[15]
	v24 := vals[24]
	v83 := vals[83]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v25 uint64
		if v24 != 0x0 {
			v25 = 1
		}
		v26 := (v24 - 0x1) & 0x7f
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v24
		}
		switch v8 {
		case 0x0:
			v28 := v27
			v41 := v4
			v85 := v83
			n0 := v41
			n3 := v28
			n4 := v85
			v4 = n0
			v8 = 0x1
			v15 = 0x2
			v24 = n3
			v83 = n4
		case 0x1:
			var v3 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7f
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v22 uint64
			if v15 == 0x0 {
				v22 = 1
			}
			v20 := v19
			v23 := v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = 0x1
			}
			v39 := v38
			v40 := v39
			v41 := v4
			v85 := v83
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
		case 0x2:
			v6 := (v4 + 0x2) & 0x7f
			var v7 uint64
			if addr := uint64(v6); addr < uint64(len(m0)) {
				v7 = m0[addr] & 0xffff
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v29 uint64
			if v24 == 0x0 {
				v29 = 1
			}
			v42 := (v7 * v7) & 0xffffffff
			v44 := (v42 * 0x1) & 0xffffffff
			v45 := (v42 >> 1)
			v47 := v24
			v48 := (v45 ^ v47)
			v50 := (v48 * 0x2) & 0xffffffff
			v51 := (v44 + v50) & 0xffffffff
			v52 := (v48 >> 1)
			v53 := (v52 ^ v47)
			v54 := (v53 * 0x1) & 0xffffffff
			v55 := (v51 + v54) & 0xffffffff
			v56 := (v53 >> 1)
			v57 := (v56 ^ v47)
			v58 := (v57 * 0x2) & 0xffffffff
			v59 := (v55 + v58) & 0xffffffff
			v60 := (v57 >> 1)
			v61 := (v60 ^ v47)
			v63 := (v61 * 0x4) & 0xffffffff
			v64 := (v59 + v63) & 0xffffffff
			v65 := (v61 >> 1)
			v66 := (v65 ^ v47)
			v67 := (v66 * 0x2) & 0xffffffff
			v68 := (v64 + v67) & 0xffffffff
			v69 := (v66 >> 1)
			v70 := (v69 ^ v47)
			v71 := (v70 * 0x1) & 0xffffffff
			v72 := (v68 + v71) & 0xffffffff
			v73 := (v70 >> 1)
			v74 := (v73 ^ v47)
			v75 := (v74 * 0x2) & 0xffffffff
			v76 := (v72 + v75) & 0xffffffff
			v77 := (v74 >> 1)
			v78 := (v77 ^ v47)
			v79 := (v78 * 0x1) & 0xffffffff
			v80 := (v76 + v79) & 0xffffffff
			v84 := (v83 + v80) & 0xffffffff
			v20 := v19
			v28 := v27
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = 0x2
			}
			v37 := v35
			v39 := v37
			v40 := v39
			v41 := v4
			v85 := v84
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
		case 0x3:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0x7f
			}
			v30 := (v4 + 0x1) & 0x7f
			var v31 uint64
			if v1 <= v30 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x4
			} else {
				v33 = 0x1
			}
			v28 := v27
			v34 := v33
			v37 := v34
			v39 := v37
			v40 := v39
			v41 := v30
			v85 := v83
			if addr := uint64(v4); addr < uint64(len(m1)) {
				m1[addr] = v83
			}
			n0 := v41
			n1 := v40
			n3 := v28
			n4 := v85
			v4 = n0
			v8 = n1
			v15 = 0x2
			v24 = n3
			v83 = n4
		case 0x4:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0x7f
			}
			var v3 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7f
			}
			v6 := (v4 + 0x2) & 0x7f
			var v7 uint64
			if addr := uint64(v6); addr < uint64(len(m0)) {
				v7 = m0[addr] & 0xffff
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v22 uint64
			if v15 == 0x0 {
				v22 = 1
			}
			var v29 uint64
			if v24 == 0x0 {
				v29 = 1
			}
			v30 := (v4 + 0x1) & 0x7f
			var v31 uint64
			if v1 <= v30 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x4
			} else {
				v33 = 0x1
			}
			v42 := (v7 * v7) & 0xffffffff
			v44 := (v42 * 0x1) & 0xffffffff
			v45 := (v42 >> 1)
			v47 := v24
			v48 := (v45 ^ v47)
			v50 := (v48 * 0x2) & 0xffffffff
			v51 := (v44 + v50) & 0xffffffff
			v52 := (v48 >> 1)
			v53 := (v52 ^ v47)
			v54 := (v53 * 0x1) & 0xffffffff
			v55 := (v51 + v54) & 0xffffffff
			v56 := (v53 >> 1)
			v57 := (v56 ^ v47)
			v58 := (v57 * 0x2) & 0xffffffff
			v59 := (v55 + v58) & 0xffffffff
			v60 := (v57 >> 1)
			v61 := (v60 ^ v47)
			v63 := (v61 * 0x4) & 0xffffffff
			v64 := (v59 + v63) & 0xffffffff
			v65 := (v61 >> 1)
			v66 := (v65 ^ v47)
			v67 := (v66 * 0x2) & 0xffffffff
			v68 := (v64 + v67) & 0xffffffff
			v69 := (v66 >> 1)
			v70 := (v69 ^ v47)
			v71 := (v70 * 0x1) & 0xffffffff
			v72 := (v68 + v71) & 0xffffffff
			v73 := (v70 >> 1)
			v74 := (v73 ^ v47)
			v75 := (v74 * 0x2) & 0xffffffff
			v76 := (v72 + v75) & 0xffffffff
			v77 := (v74 >> 1)
			v78 := (v77 ^ v47)
			v79 := (v78 * 0x1) & 0xffffffff
			v80 := (v76 + v79) & 0xffffffff
			v84 := (v83 + v80) & 0xffffffff
			var v10 uint64
			if v8 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v8 == 0x3 {
				v12 = 1
			}
			v13 := (v10 | v12)
			var v20 uint64
			if v13 != 0 {
				v20 = 0x2
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 == 0x1 {
				v21 = 1
			}
			v23 := v21 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v34 uint64
			if v12 != 0 {
				v34 = v33
			} else {
				v34 = v8
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = v8
			}
			var v36 uint64
			if v8 == 0x2 {
				v36 = 1
			}
			var v37 uint64
			if v36 != 0 {
				v37 = v35
			} else {
				v37 = v34
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = v8
			}
			var v39 uint64
			if v21 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v40 uint64
			if v10 != 0 {
				v40 = 0x1
			} else {
				v40 = v39
			}
			var v41 uint64
			if v12 != 0 {
				v41 = v30
			} else {
				v41 = v4
			}
			var v85 uint64
			if v36 != 0 {
				v85 = v84
			} else {
				v85 = v83
			}
			var v86 uint64
			if v8 == 0x4 {
				v86 = 1
			}
			if v86 != 0 {
				break loop
			}
			if v12 != 0 {
				if addr := uint64(v4); addr < uint64(len(m1)) {
					m1[addr] = v83
				}
			}
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
		}
	}
	vals[4] = v4
	vals[8] = v8
	vals[15] = v15
	vals[24] = v24
	vals[83] = v83
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0x7f
	}
	vals[1] = v1
	var v3 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x7f
	}
	vals[3] = v3
	v6 := (v4 + 0x2) & 0x7f
	vals[6] = v6
	var v7 uint64
	if addr := uint64(v6); addr < uint64(len(m0)) {
		v7 = m0[addr] & 0xffff
	}
	vals[7] = v7
	var v16 uint64
	if v15 != 0x0 {
		v16 = 1
	}
	vals[16] = v16
	v18 := (v15 - 0x1) & 0x7
	vals[18] = v18
	var v19 uint64
	if v16 != 0 {
		v19 = v18
	} else {
		v19 = v15
	}
	vals[19] = v19
	var v22 uint64
	if v15 == 0x0 {
		v22 = 1
	}
	vals[22] = v22
	var v25 uint64
	if v24 != 0x0 {
		v25 = 1
	}
	vals[25] = v25
	v26 := (v24 - 0x1) & 0x7f
	vals[26] = v26
	var v27 uint64
	if v25 != 0 {
		v27 = v26
	} else {
		v27 = v24
	}
	vals[27] = v27
	var v29 uint64
	if v24 == 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v30 := (v4 + 0x1) & 0x7f
	vals[30] = v30
	var v31 uint64
	if v1 <= v30 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x4
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v42 := (v7 * v7) & 0xffffffff
	vals[42] = v42
	v44 := (v42 * 0x1) & 0xffffffff
	vals[44] = v44
	v45 := (v42 >> 1)
	vals[45] = v45
	v47 := v24
	vals[47] = v47
	v48 := (v45 ^ v47)
	vals[48] = v48
	v50 := (v48 * 0x2) & 0xffffffff
	vals[50] = v50
	v51 := (v44 + v50) & 0xffffffff
	vals[51] = v51
	v52 := (v48 >> 1)
	vals[52] = v52
	v53 := (v52 ^ v47)
	vals[53] = v53
	v54 := (v53 * 0x1) & 0xffffffff
	vals[54] = v54
	v55 := (v51 + v54) & 0xffffffff
	vals[55] = v55
	v56 := (v53 >> 1)
	vals[56] = v56
	v57 := (v56 ^ v47)
	vals[57] = v57
	v58 := (v57 * 0x2) & 0xffffffff
	vals[58] = v58
	v59 := (v55 + v58) & 0xffffffff
	vals[59] = v59
	v60 := (v57 >> 1)
	vals[60] = v60
	v61 := (v60 ^ v47)
	vals[61] = v61
	v63 := (v61 * 0x4) & 0xffffffff
	vals[63] = v63
	v64 := (v59 + v63) & 0xffffffff
	vals[64] = v64
	v65 := (v61 >> 1)
	vals[65] = v65
	v66 := (v65 ^ v47)
	vals[66] = v66
	v67 := (v66 * 0x2) & 0xffffffff
	vals[67] = v67
	v68 := (v64 + v67) & 0xffffffff
	vals[68] = v68
	v69 := (v66 >> 1)
	vals[69] = v69
	v70 := (v69 ^ v47)
	vals[70] = v70
	v71 := (v70 * 0x1) & 0xffffffff
	vals[71] = v71
	v72 := (v68 + v71) & 0xffffffff
	vals[72] = v72
	v73 := (v70 >> 1)
	vals[73] = v73
	v74 := (v73 ^ v47)
	vals[74] = v74
	v75 := (v74 * 0x2) & 0xffffffff
	vals[75] = v75
	v76 := (v72 + v75) & 0xffffffff
	vals[76] = v76
	v77 := (v74 >> 1)
	vals[77] = v77
	v78 := (v77 ^ v47)
	vals[78] = v78
	v79 := (v78 * 0x1) & 0xffffffff
	vals[79] = v79
	v80 := (v76 + v79) & 0xffffffff
	vals[80] = v80
	v81 := (v78 >> 1)
	vals[81] = v81
	v82 := (v81 ^ v47)
	vals[82] = v82
	v84 := (v83 + v80) & 0xffffffff
	vals[84] = v84
	switch v8 {
	case 0x0:
		vals[10] = 0x1
		vals[12] = 0x0
		vals[13] = 0x1
		vals[20] = 0x2
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x0
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x0
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x0
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x0
		}
		vals[38] = v38
		vals[39] = 0x0
		vals[40] = 0x1
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
	case 0x1:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x1
		v23 := v22
		vals[23] = v23
		var v28 uint64
		if v23 != 0 {
			v28 = v3
		} else {
			v28 = v27
		}
		vals[28] = v28
		vals[34] = 0x1
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x1
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x1
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x1
		}
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
	case 0x2:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x2
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x2
		}
		vals[35] = v35
		vals[36] = 0x1
		v37 := v35
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x2
		}
		vals[38] = v38
		v39 := v37
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v4
		vals[41] = v41
		v85 := v84
		vals[85] = v85
		vals[86] = 0x0
	case 0x3:
		vals[10] = 0x0
		vals[12] = 0x1
		vals[13] = 0x1
		vals[20] = 0x2
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		v34 := v33
		vals[34] = v34
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x3
		}
		vals[35] = v35
		vals[36] = 0x0
		v37 := v34
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x3
		}
		vals[38] = v38
		v39 := v37
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v30
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
	case 0x4:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x4
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x4
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x4
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x4
		}
		vals[38] = v38
		vals[39] = 0x4
		vals[40] = 0x4
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x1
	default:
		var v10 uint64
		if v8 == 0x0 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v8 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		v13 := (v10 | v12)
		vals[13] = v13
		var v20 uint64
		if v13 != 0 {
			v20 = 0x2
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 == 0x1 {
			v21 = 1
		}
		vals[21] = v21
		v23 := v21 & v22
		vals[23] = v23
		var v28 uint64
		if v23 != 0 {
			v28 = v3
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v34 uint64
		if v12 != 0 {
			v34 = v33
		} else {
			v34 = v8
		}
		vals[34] = v34
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = v8
		}
		vals[35] = v35
		var v36 uint64
		if v8 == 0x2 {
			v36 = 1
		}
		vals[36] = v36
		var v37 uint64
		if v36 != 0 {
			v37 = v35
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = v8
		}
		vals[38] = v38
		var v39 uint64
		if v21 != 0 {
			v39 = v38
		} else {
			v39 = v37
		}
		vals[39] = v39
		var v40 uint64
		if v10 != 0 {
			v40 = 0x1
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v12 != 0 {
			v41 = v30
		} else {
			v41 = v4
		}
		vals[41] = v41
		var v85 uint64
		if v36 != 0 {
			v85 = v84
		} else {
			v85 = v83
		}
		vals[85] = v85
		var v86 uint64
		if v8 == 0x4 {
			v86 = 1
		}
		vals[86] = v86
	}
	done := vals[86] != 0
	if vals[12] != 0 {
		if addr := vals[4]; addr < uint64(len(m1)) {
			m1[addr] = vals[83]
		}
	}
	l0 := vals[41] & 0x7f
	l1 := vals[40] & 0x7
	l2 := vals[20] & 0x7
	l3 := vals[28] & 0x7f
	l4 := vals[85] & 0xffffffff
	vals[4] = l0
	vals[8] = l1
	vals[15] = l2
	vals[24] = l3
	vals[83] = l4
	return cycles + 1, done
}

func step_stencil_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[129]
	m0 := mems[0]
	m1 := mems[1]
	v4 := vals[4]
	v8 := vals[8]
	v15 := vals[15]
	v24 := vals[24]
	v83 := vals[83]
	v90 := vals[90]
	v95 := vals[95]
	v100 := vals[100]
	v105 := vals[105]
	v109 := vals[109]
	v112 := vals[112]
	v115 := vals[115]
	v118 := vals[118]
	v121 := vals[121]
	v124 := vals[124]
	v127 := vals[127]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v25 uint64
		if v24 != 0x0 {
			v25 = 1
		}
		v26 := (v24 - 0x1) & 0x7f
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v24
		}
		switch v8 {
		case 0x0:
			v91 := (v90 + 0x1) & 0xffffff
			v113 := (v112 + 0x1) & 0xffffff
			v116 := (v115 + 0x2) & 0xffffff
			v119 := (v118 + v15) & 0xffffff
			v28 := v27
			v41 := v4
			v85 := v83
			v92 := v91
			v97 := v95
			v102 := v100
			v107 := v105
			v111 := v109
			v114 := v113
			v117 := v116
			v120 := v119
			v123 := v121
			v126 := v124
			v129 := v127
			n0 := v41
			n3 := v28
			n4 := v85
			n5 := v92
			n6 := v97
			n7 := v102
			n8 := v107
			n9 := v111
			n10 := v114
			n11 := v117
			n12 := v120
			n13 := v123
			n14 := v126
			n15 := v129
			v4 = n0
			v8 = 0x1
			v15 = 0x2
			v24 = n3
			v83 = n4
			v90 = n5
			v95 = n6
			v100 = n7
			v105 = n8
			v109 = n9
			v112 = n10
			v115 = n11
			v118 = n12
			v121 = n13
			v124 = n14
			v127 = n15
		case 0x1:
			var v3 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7f
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v22 uint64
			if v15 == 0x0 {
				v22 = 1
			}
			v96 := (v95 + 0x1) & 0xffffff
			v122 := (v121 + 0x1) & 0xffffff
			v125 := (v124 + v3) & 0xffffff
			v128 := (v127 + v24) & 0xffffff
			v20 := v19
			v23 := v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = 0x1
			}
			v39 := v38
			v40 := v39
			v41 := v4
			v85 := v83
			v92 := v90
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			v102 := v100
			v107 := v105
			v111 := v109
			v114 := v112
			v117 := v115
			v120 := v118
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			n5 := v92
			n6 := v97
			n7 := v102
			n8 := v107
			n9 := v111
			n10 := v114
			n11 := v117
			n12 := v120
			n13 := v123
			n14 := v126
			n15 := v129
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
			v90 = n5
			v95 = n6
			v100 = n7
			v105 = n8
			v109 = n9
			v112 = n10
			v115 = n11
			v118 = n12
			v121 = n13
			v124 = n14
			v127 = n15
		case 0x2:
			v6 := (v4 + 0x2) & 0x7f
			var v7 uint64
			if addr := uint64(v6); addr < uint64(len(m0)) {
				v7 = m0[addr] & 0xffff
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v29 uint64
			if v24 == 0x0 {
				v29 = 1
			}
			v42 := (v7 * v7) & 0xffffffff
			v44 := (v42 * 0x1) & 0xffffffff
			v45 := (v42 >> 1)
			v47 := v24
			v48 := (v45 ^ v47)
			v50 := (v48 * 0x2) & 0xffffffff
			v51 := (v44 + v50) & 0xffffffff
			v52 := (v48 >> 1)
			v53 := (v52 ^ v47)
			v54 := (v53 * 0x1) & 0xffffffff
			v55 := (v51 + v54) & 0xffffffff
			v56 := (v53 >> 1)
			v57 := (v56 ^ v47)
			v58 := (v57 * 0x2) & 0xffffffff
			v59 := (v55 + v58) & 0xffffffff
			v60 := (v57 >> 1)
			v61 := (v60 ^ v47)
			v63 := (v61 * 0x4) & 0xffffffff
			v64 := (v59 + v63) & 0xffffffff
			v65 := (v61 >> 1)
			v66 := (v65 ^ v47)
			v67 := (v66 * 0x2) & 0xffffffff
			v68 := (v64 + v67) & 0xffffffff
			v69 := (v66 >> 1)
			v70 := (v69 ^ v47)
			v71 := (v70 * 0x1) & 0xffffffff
			v72 := (v68 + v71) & 0xffffffff
			v73 := (v70 >> 1)
			v74 := (v73 ^ v47)
			v75 := (v74 * 0x2) & 0xffffffff
			v76 := (v72 + v75) & 0xffffffff
			v77 := (v74 >> 1)
			v78 := (v77 ^ v47)
			v79 := (v78 * 0x1) & 0xffffffff
			v80 := (v76 + v79) & 0xffffffff
			v84 := (v83 + v80) & 0xffffffff
			v101 := (v100 + 0x1) & 0xffffff
			v20 := v19
			v28 := v27
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = 0x2
			}
			v37 := v35
			v39 := v37
			v40 := v39
			v41 := v4
			v85 := v84
			v92 := v90
			v97 := v95
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			v107 := v105
			v111 := v109
			v114 := v112
			v117 := v115
			v120 := v118
			v123 := v121
			v126 := v124
			v129 := v127
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			n5 := v92
			n6 := v97
			n7 := v102
			n8 := v107
			n9 := v111
			n10 := v114
			n11 := v117
			n12 := v120
			n13 := v123
			n14 := v126
			n15 := v129
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
			v90 = n5
			v95 = n6
			v100 = n7
			v105 = n8
			v109 = n9
			v112 = n10
			v115 = n11
			v118 = n12
			v121 = n13
			v124 = n14
			v127 = n15
		case 0x3:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0x7f
			}
			v30 := (v4 + 0x1) & 0x7f
			var v31 uint64
			if v1 <= v30 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x4
			} else {
				v33 = 0x1
			}
			v106 := (v105 + 0x1) & 0xffffff
			v110 := (v109 + 0x1) & 0xffffff
			v113 := (v112 + 0x1) & 0xffffff
			v116 := (v115 + 0x2) & 0xffffff
			v119 := (v118 + v15) & 0xffffff
			v28 := v27
			v34 := v33
			v37 := v34
			v39 := v37
			v40 := v39
			v41 := v30
			v85 := v83
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v92 := v90
			v97 := v95
			v102 := v100
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			v114 := v113
			v117 := v116
			v120 := v119
			v123 := v121
			v126 := v124
			v129 := v127
			if addr := uint64(v4); addr < uint64(len(m1)) {
				m1[addr] = v83
			}
			n0 := v41
			n1 := v40
			n3 := v28
			n4 := v85
			n5 := v92
			n6 := v97
			n7 := v102
			n8 := v107
			n9 := v111
			n10 := v114
			n11 := v117
			n12 := v120
			n13 := v123
			n14 := v126
			n15 := v129
			v4 = n0
			v8 = n1
			v15 = 0x2
			v24 = n3
			v83 = n4
			v90 = n5
			v95 = n6
			v100 = n7
			v105 = n8
			v109 = n9
			v112 = n10
			v115 = n11
			v118 = n12
			v121 = n13
			v124 = n14
			v127 = n15
		case 0x4:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0x7f
			}
			var v3 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7f
			}
			v6 := (v4 + 0x2) & 0x7f
			var v7 uint64
			if addr := uint64(v6); addr < uint64(len(m0)) {
				v7 = m0[addr] & 0xffff
			}
			var v16 uint64
			if v15 != 0x0 {
				v16 = 1
			}
			v18 := (v15 - 0x1) & 0x7
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v15
			}
			var v22 uint64
			if v15 == 0x0 {
				v22 = 1
			}
			var v29 uint64
			if v24 == 0x0 {
				v29 = 1
			}
			v30 := (v4 + 0x1) & 0x7f
			var v31 uint64
			if v1 <= v30 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x4
			} else {
				v33 = 0x1
			}
			v42 := (v7 * v7) & 0xffffffff
			v44 := (v42 * 0x1) & 0xffffffff
			v45 := (v42 >> 1)
			v47 := v24
			v48 := (v45 ^ v47)
			v50 := (v48 * 0x2) & 0xffffffff
			v51 := (v44 + v50) & 0xffffffff
			v52 := (v48 >> 1)
			v53 := (v52 ^ v47)
			v54 := (v53 * 0x1) & 0xffffffff
			v55 := (v51 + v54) & 0xffffffff
			v56 := (v53 >> 1)
			v57 := (v56 ^ v47)
			v58 := (v57 * 0x2) & 0xffffffff
			v59 := (v55 + v58) & 0xffffffff
			v60 := (v57 >> 1)
			v61 := (v60 ^ v47)
			v63 := (v61 * 0x4) & 0xffffffff
			v64 := (v59 + v63) & 0xffffffff
			v65 := (v61 >> 1)
			v66 := (v65 ^ v47)
			v67 := (v66 * 0x2) & 0xffffffff
			v68 := (v64 + v67) & 0xffffffff
			v69 := (v66 >> 1)
			v70 := (v69 ^ v47)
			v71 := (v70 * 0x1) & 0xffffffff
			v72 := (v68 + v71) & 0xffffffff
			v73 := (v70 >> 1)
			v74 := (v73 ^ v47)
			v75 := (v74 * 0x2) & 0xffffffff
			v76 := (v72 + v75) & 0xffffffff
			v77 := (v74 >> 1)
			v78 := (v77 ^ v47)
			v79 := (v78 * 0x1) & 0xffffffff
			v80 := (v76 + v79) & 0xffffffff
			v84 := (v83 + v80) & 0xffffffff
			v91 := (v90 + 0x1) & 0xffffff
			v96 := (v95 + 0x1) & 0xffffff
			v101 := (v100 + 0x1) & 0xffffff
			v106 := (v105 + 0x1) & 0xffffff
			v110 := (v109 + 0x1) & 0xffffff
			v113 := (v112 + 0x1) & 0xffffff
			v116 := (v115 + 0x2) & 0xffffff
			v119 := (v118 + v15) & 0xffffff
			v122 := (v121 + 0x1) & 0xffffff
			v125 := (v124 + v3) & 0xffffff
			v128 := (v127 + v24) & 0xffffff
			var v10 uint64
			if v8 == 0x0 {
				v10 = 1
			}
			var v12 uint64
			if v8 == 0x3 {
				v12 = 1
			}
			v13 := (v10 | v12)
			var v20 uint64
			if v13 != 0 {
				v20 = 0x2
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 == 0x1 {
				v21 = 1
			}
			v23 := v21 & v22
			var v28 uint64
			if v23 != 0 {
				v28 = v3
			} else {
				v28 = v27
			}
			var v34 uint64
			if v12 != 0 {
				v34 = v33
			} else {
				v34 = v8
			}
			var v35 uint64
			if v29 != 0 {
				v35 = 0x3
			} else {
				v35 = v8
			}
			var v36 uint64
			if v8 == 0x2 {
				v36 = 1
			}
			var v37 uint64
			if v36 != 0 {
				v37 = v35
			} else {
				v37 = v34
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x2
			} else {
				v38 = v8
			}
			var v39 uint64
			if v21 != 0 {
				v39 = v38
			} else {
				v39 = v37
			}
			var v40 uint64
			if v10 != 0 {
				v40 = 0x1
			} else {
				v40 = v39
			}
			var v41 uint64
			if v12 != 0 {
				v41 = v30
			} else {
				v41 = v4
			}
			var v85 uint64
			if v36 != 0 {
				v85 = v84
			} else {
				v85 = v83
			}
			var v86 uint64
			if v8 == 0x4 {
				v86 = 1
			}
			var v87 uint64
			if v40 == 0x1 {
				v87 = 1
			}
			v88 := v10 & v87
			var v92 uint64
			if v88 != 0 {
				v92 = v91
			} else {
				v92 = v90
			}
			var v93 uint64
			if v40 == 0x2 {
				v93 = 1
			}
			v94 := v21 & v93
			var v97 uint64
			if v94 != 0 {
				v97 = v96
			} else {
				v97 = v95
			}
			var v98 uint64
			if v40 == 0x3 {
				v98 = 1
			}
			v99 := v36 & v98
			var v102 uint64
			if v99 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v103 uint64
			if v40 == 0x4 {
				v103 = 1
			}
			v104 := v12 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v105
			}
			v108 := v12 & v87
			var v111 uint64
			if v108 != 0 {
				v111 = v110
			} else {
				v111 = v109
			}
			var v114 uint64
			if v13 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v117 uint64
			if v13 != 0 {
				v117 = v116
			} else {
				v117 = v115
			}
			var v120 uint64
			if v13 != 0 {
				v120 = v119
			} else {
				v120 = v118
			}
			var v123 uint64
			if v23 != 0 {
				v123 = v122
			} else {
				v123 = v121
			}
			var v126 uint64
			if v23 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v129 uint64
			if v23 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			if v86 != 0 {
				break loop
			}
			if v12 != 0 {
				if addr := uint64(v4); addr < uint64(len(m1)) {
					m1[addr] = v83
				}
			}
			n0 := v41
			n1 := v40
			n2 := v20
			n3 := v28
			n4 := v85
			n5 := v92
			n6 := v97
			n7 := v102
			n8 := v107
			n9 := v111
			n10 := v114
			n11 := v117
			n12 := v120
			n13 := v123
			n14 := v126
			n15 := v129
			v4 = n0
			v8 = n1
			v15 = n2
			v24 = n3
			v83 = n4
			v90 = n5
			v95 = n6
			v100 = n7
			v105 = n8
			v109 = n9
			v112 = n10
			v115 = n11
			v118 = n12
			v121 = n13
			v124 = n14
			v127 = n15
		}
	}
	vals[4] = v4
	vals[8] = v8
	vals[15] = v15
	vals[24] = v24
	vals[83] = v83
	vals[90] = v90
	vals[95] = v95
	vals[100] = v100
	vals[105] = v105
	vals[109] = v109
	vals[112] = v112
	vals[115] = v115
	vals[118] = v118
	vals[121] = v121
	vals[124] = v124
	vals[127] = v127
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0x7f
	}
	vals[1] = v1
	var v3 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x7f
	}
	vals[3] = v3
	v6 := (v4 + 0x2) & 0x7f
	vals[6] = v6
	var v7 uint64
	if addr := uint64(v6); addr < uint64(len(m0)) {
		v7 = m0[addr] & 0xffff
	}
	vals[7] = v7
	var v16 uint64
	if v15 != 0x0 {
		v16 = 1
	}
	vals[16] = v16
	v18 := (v15 - 0x1) & 0x7
	vals[18] = v18
	var v19 uint64
	if v16 != 0 {
		v19 = v18
	} else {
		v19 = v15
	}
	vals[19] = v19
	var v22 uint64
	if v15 == 0x0 {
		v22 = 1
	}
	vals[22] = v22
	var v25 uint64
	if v24 != 0x0 {
		v25 = 1
	}
	vals[25] = v25
	v26 := (v24 - 0x1) & 0x7f
	vals[26] = v26
	var v27 uint64
	if v25 != 0 {
		v27 = v26
	} else {
		v27 = v24
	}
	vals[27] = v27
	var v29 uint64
	if v24 == 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v30 := (v4 + 0x1) & 0x7f
	vals[30] = v30
	var v31 uint64
	if v1 <= v30 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x4
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v42 := (v7 * v7) & 0xffffffff
	vals[42] = v42
	v44 := (v42 * 0x1) & 0xffffffff
	vals[44] = v44
	v45 := (v42 >> 1)
	vals[45] = v45
	v47 := v24
	vals[47] = v47
	v48 := (v45 ^ v47)
	vals[48] = v48
	v50 := (v48 * 0x2) & 0xffffffff
	vals[50] = v50
	v51 := (v44 + v50) & 0xffffffff
	vals[51] = v51
	v52 := (v48 >> 1)
	vals[52] = v52
	v53 := (v52 ^ v47)
	vals[53] = v53
	v54 := (v53 * 0x1) & 0xffffffff
	vals[54] = v54
	v55 := (v51 + v54) & 0xffffffff
	vals[55] = v55
	v56 := (v53 >> 1)
	vals[56] = v56
	v57 := (v56 ^ v47)
	vals[57] = v57
	v58 := (v57 * 0x2) & 0xffffffff
	vals[58] = v58
	v59 := (v55 + v58) & 0xffffffff
	vals[59] = v59
	v60 := (v57 >> 1)
	vals[60] = v60
	v61 := (v60 ^ v47)
	vals[61] = v61
	v63 := (v61 * 0x4) & 0xffffffff
	vals[63] = v63
	v64 := (v59 + v63) & 0xffffffff
	vals[64] = v64
	v65 := (v61 >> 1)
	vals[65] = v65
	v66 := (v65 ^ v47)
	vals[66] = v66
	v67 := (v66 * 0x2) & 0xffffffff
	vals[67] = v67
	v68 := (v64 + v67) & 0xffffffff
	vals[68] = v68
	v69 := (v66 >> 1)
	vals[69] = v69
	v70 := (v69 ^ v47)
	vals[70] = v70
	v71 := (v70 * 0x1) & 0xffffffff
	vals[71] = v71
	v72 := (v68 + v71) & 0xffffffff
	vals[72] = v72
	v73 := (v70 >> 1)
	vals[73] = v73
	v74 := (v73 ^ v47)
	vals[74] = v74
	v75 := (v74 * 0x2) & 0xffffffff
	vals[75] = v75
	v76 := (v72 + v75) & 0xffffffff
	vals[76] = v76
	v77 := (v74 >> 1)
	vals[77] = v77
	v78 := (v77 ^ v47)
	vals[78] = v78
	v79 := (v78 * 0x1) & 0xffffffff
	vals[79] = v79
	v80 := (v76 + v79) & 0xffffffff
	vals[80] = v80
	v81 := (v78 >> 1)
	vals[81] = v81
	v82 := (v81 ^ v47)
	vals[82] = v82
	v84 := (v83 + v80) & 0xffffffff
	vals[84] = v84
	v91 := (v90 + 0x1) & 0xffffff
	vals[91] = v91
	v96 := (v95 + 0x1) & 0xffffff
	vals[96] = v96
	v101 := (v100 + 0x1) & 0xffffff
	vals[101] = v101
	v106 := (v105 + 0x1) & 0xffffff
	vals[106] = v106
	v110 := (v109 + 0x1) & 0xffffff
	vals[110] = v110
	v113 := (v112 + 0x1) & 0xffffff
	vals[113] = v113
	v116 := (v115 + 0x2) & 0xffffff
	vals[116] = v116
	v119 := (v118 + v15) & 0xffffff
	vals[119] = v119
	v122 := (v121 + 0x1) & 0xffffff
	vals[122] = v122
	v125 := (v124 + v3) & 0xffffff
	vals[125] = v125
	v128 := (v127 + v24) & 0xffffff
	vals[128] = v128
	switch v8 {
	case 0x0:
		vals[10] = 0x1
		vals[12] = 0x0
		vals[13] = 0x1
		vals[20] = 0x2
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x0
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x0
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x0
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x0
		}
		vals[38] = v38
		vals[39] = 0x0
		vals[40] = 0x1
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
		vals[87] = 0x1
		vals[88] = 0x1
		v92 := v91
		vals[92] = v92
		vals[93] = 0x0
		vals[94] = 0x0
		v97 := v95
		vals[97] = v97
		vals[98] = 0x0
		vals[99] = 0x0
		v102 := v100
		vals[102] = v102
		vals[103] = 0x0
		vals[104] = 0x0
		v107 := v105
		vals[107] = v107
		vals[108] = 0x0
		v111 := v109
		vals[111] = v111
		v114 := v113
		vals[114] = v114
		v117 := v116
		vals[117] = v117
		v120 := v119
		vals[120] = v120
		v123 := v121
		vals[123] = v123
		v126 := v124
		vals[126] = v126
		v129 := v127
		vals[129] = v129
	case 0x1:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x1
		v23 := v22
		vals[23] = v23
		var v28 uint64
		if v23 != 0 {
			v28 = v3
		} else {
			v28 = v27
		}
		vals[28] = v28
		vals[34] = 0x1
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x1
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x1
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x1
		}
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
		var v87 uint64
		if v40 == 0x1 {
			v87 = 1
		}
		vals[87] = v87
		vals[88] = 0x0
		v92 := v90
		vals[92] = v92
		var v93 uint64
		if v40 == 0x2 {
			v93 = 1
		}
		vals[93] = v93
		v94 := v93
		vals[94] = v94
		var v97 uint64
		if v94 != 0 {
			v97 = v96
		} else {
			v97 = v95
		}
		vals[97] = v97
		var v98 uint64
		if v40 == 0x3 {
			v98 = 1
		}
		vals[98] = v98
		vals[99] = 0x0
		v102 := v100
		vals[102] = v102
		var v103 uint64
		if v40 == 0x4 {
			v103 = 1
		}
		vals[103] = v103
		vals[104] = 0x0
		v107 := v105
		vals[107] = v107
		vals[108] = 0x0
		v111 := v109
		vals[111] = v111
		v114 := v112
		vals[114] = v114
		v117 := v115
		vals[117] = v117
		v120 := v118
		vals[120] = v120
		var v123 uint64
		if v23 != 0 {
			v123 = v122
		} else {
			v123 = v121
		}
		vals[123] = v123
		var v126 uint64
		if v23 != 0 {
			v126 = v125
		} else {
			v126 = v124
		}
		vals[126] = v126
		var v129 uint64
		if v23 != 0 {
			v129 = v128
		} else {
			v129 = v127
		}
		vals[129] = v129
	case 0x2:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x2
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x2
		}
		vals[35] = v35
		vals[36] = 0x1
		v37 := v35
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x2
		}
		vals[38] = v38
		v39 := v37
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v4
		vals[41] = v41
		v85 := v84
		vals[85] = v85
		vals[86] = 0x0
		var v87 uint64
		if v40 == 0x1 {
			v87 = 1
		}
		vals[87] = v87
		vals[88] = 0x0
		v92 := v90
		vals[92] = v92
		var v93 uint64
		if v40 == 0x2 {
			v93 = 1
		}
		vals[93] = v93
		vals[94] = 0x0
		v97 := v95
		vals[97] = v97
		var v98 uint64
		if v40 == 0x3 {
			v98 = 1
		}
		vals[98] = v98
		v99 := v98
		vals[99] = v99
		var v102 uint64
		if v99 != 0 {
			v102 = v101
		} else {
			v102 = v100
		}
		vals[102] = v102
		var v103 uint64
		if v40 == 0x4 {
			v103 = 1
		}
		vals[103] = v103
		vals[104] = 0x0
		v107 := v105
		vals[107] = v107
		vals[108] = 0x0
		v111 := v109
		vals[111] = v111
		v114 := v112
		vals[114] = v114
		v117 := v115
		vals[117] = v117
		v120 := v118
		vals[120] = v120
		v123 := v121
		vals[123] = v123
		v126 := v124
		vals[126] = v126
		v129 := v127
		vals[129] = v129
	case 0x3:
		vals[10] = 0x0
		vals[12] = 0x1
		vals[13] = 0x1
		vals[20] = 0x2
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		v34 := v33
		vals[34] = v34
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x3
		}
		vals[35] = v35
		vals[36] = 0x0
		v37 := v34
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x3
		}
		vals[38] = v38
		v39 := v37
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v30
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x0
		var v87 uint64
		if v40 == 0x1 {
			v87 = 1
		}
		vals[87] = v87
		vals[88] = 0x0
		v92 := v90
		vals[92] = v92
		var v93 uint64
		if v40 == 0x2 {
			v93 = 1
		}
		vals[93] = v93
		vals[94] = 0x0
		v97 := v95
		vals[97] = v97
		var v98 uint64
		if v40 == 0x3 {
			v98 = 1
		}
		vals[98] = v98
		vals[99] = 0x0
		v102 := v100
		vals[102] = v102
		var v103 uint64
		if v40 == 0x4 {
			v103 = 1
		}
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		var v107 uint64
		if v104 != 0 {
			v107 = v106
		} else {
			v107 = v105
		}
		vals[107] = v107
		v108 := v87
		vals[108] = v108
		var v111 uint64
		if v108 != 0 {
			v111 = v110
		} else {
			v111 = v109
		}
		vals[111] = v111
		v114 := v113
		vals[114] = v114
		v117 := v116
		vals[117] = v117
		v120 := v119
		vals[120] = v120
		v123 := v121
		vals[123] = v123
		v126 := v124
		vals[126] = v126
		v129 := v127
		vals[129] = v129
	case 0x4:
		vals[10] = 0x0
		vals[12] = 0x0
		vals[13] = 0x0
		v20 := v19
		vals[20] = v20
		vals[21] = 0x0
		vals[23] = 0x0
		v28 := v27
		vals[28] = v28
		vals[34] = 0x4
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = 0x4
		}
		vals[35] = v35
		vals[36] = 0x0
		vals[37] = 0x4
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = 0x4
		}
		vals[38] = v38
		vals[39] = 0x4
		vals[40] = 0x4
		v41 := v4
		vals[41] = v41
		v85 := v83
		vals[85] = v85
		vals[86] = 0x1
		vals[87] = 0x0
		vals[88] = 0x0
		v92 := v90
		vals[92] = v92
		vals[93] = 0x0
		vals[94] = 0x0
		v97 := v95
		vals[97] = v97
		vals[98] = 0x0
		vals[99] = 0x0
		v102 := v100
		vals[102] = v102
		vals[103] = 0x1
		vals[104] = 0x0
		v107 := v105
		vals[107] = v107
		vals[108] = 0x0
		v111 := v109
		vals[111] = v111
		v114 := v112
		vals[114] = v114
		v117 := v115
		vals[117] = v117
		v120 := v118
		vals[120] = v120
		v123 := v121
		vals[123] = v123
		v126 := v124
		vals[126] = v126
		v129 := v127
		vals[129] = v129
	default:
		var v10 uint64
		if v8 == 0x0 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v8 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		v13 := (v10 | v12)
		vals[13] = v13
		var v20 uint64
		if v13 != 0 {
			v20 = 0x2
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 == 0x1 {
			v21 = 1
		}
		vals[21] = v21
		v23 := v21 & v22
		vals[23] = v23
		var v28 uint64
		if v23 != 0 {
			v28 = v3
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v34 uint64
		if v12 != 0 {
			v34 = v33
		} else {
			v34 = v8
		}
		vals[34] = v34
		var v35 uint64
		if v29 != 0 {
			v35 = 0x3
		} else {
			v35 = v8
		}
		vals[35] = v35
		var v36 uint64
		if v8 == 0x2 {
			v36 = 1
		}
		vals[36] = v36
		var v37 uint64
		if v36 != 0 {
			v37 = v35
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x2
		} else {
			v38 = v8
		}
		vals[38] = v38
		var v39 uint64
		if v21 != 0 {
			v39 = v38
		} else {
			v39 = v37
		}
		vals[39] = v39
		var v40 uint64
		if v10 != 0 {
			v40 = 0x1
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v12 != 0 {
			v41 = v30
		} else {
			v41 = v4
		}
		vals[41] = v41
		var v85 uint64
		if v36 != 0 {
			v85 = v84
		} else {
			v85 = v83
		}
		vals[85] = v85
		var v86 uint64
		if v8 == 0x4 {
			v86 = 1
		}
		vals[86] = v86
		var v87 uint64
		if v40 == 0x1 {
			v87 = 1
		}
		vals[87] = v87
		v88 := v10 & v87
		vals[88] = v88
		var v92 uint64
		if v88 != 0 {
			v92 = v91
		} else {
			v92 = v90
		}
		vals[92] = v92
		var v93 uint64
		if v40 == 0x2 {
			v93 = 1
		}
		vals[93] = v93
		v94 := v21 & v93
		vals[94] = v94
		var v97 uint64
		if v94 != 0 {
			v97 = v96
		} else {
			v97 = v95
		}
		vals[97] = v97
		var v98 uint64
		if v40 == 0x3 {
			v98 = 1
		}
		vals[98] = v98
		v99 := v36 & v98
		vals[99] = v99
		var v102 uint64
		if v99 != 0 {
			v102 = v101
		} else {
			v102 = v100
		}
		vals[102] = v102
		var v103 uint64
		if v40 == 0x4 {
			v103 = 1
		}
		vals[103] = v103
		v104 := v12 & v103
		vals[104] = v104
		var v107 uint64
		if v104 != 0 {
			v107 = v106
		} else {
			v107 = v105
		}
		vals[107] = v107
		v108 := v12 & v87
		vals[108] = v108
		var v111 uint64
		if v108 != 0 {
			v111 = v110
		} else {
			v111 = v109
		}
		vals[111] = v111
		var v114 uint64
		if v13 != 0 {
			v114 = v113
		} else {
			v114 = v112
		}
		vals[114] = v114
		var v117 uint64
		if v13 != 0 {
			v117 = v116
		} else {
			v117 = v115
		}
		vals[117] = v117
		var v120 uint64
		if v13 != 0 {
			v120 = v119
		} else {
			v120 = v118
		}
		vals[120] = v120
		var v123 uint64
		if v23 != 0 {
			v123 = v122
		} else {
			v123 = v121
		}
		vals[123] = v123
		var v126 uint64
		if v23 != 0 {
			v126 = v125
		} else {
			v126 = v124
		}
		vals[126] = v126
		var v129 uint64
		if v23 != 0 {
			v129 = v128
		} else {
			v129 = v127
		}
		vals[129] = v129
	}
	done := vals[86] != 0
	if vals[12] != 0 {
		if addr := vals[4]; addr < uint64(len(m1)) {
			m1[addr] = vals[83]
		}
	}
	l0 := vals[41] & 0x7f
	l1 := vals[40] & 0x7
	l2 := vals[20] & 0x7
	l3 := vals[28] & 0x7f
	l4 := vals[85] & 0xffffffff
	l5 := vals[92] & 0xffffff
	l6 := vals[97] & 0xffffff
	l7 := vals[102] & 0xffffff
	l8 := vals[107] & 0xffffff
	l9 := vals[111] & 0xffffff
	l10 := vals[114] & 0xffffff
	l11 := vals[117] & 0xffffff
	l12 := vals[120] & 0xffffff
	l13 := vals[123] & 0xffffff
	l14 := vals[126] & 0xffffff
	l15 := vals[129] & 0xffffff
	vals[4] = l0
	vals[8] = l1
	vals[15] = l2
	vals[24] = l3
	vals[83] = l4
	vals[90] = l5
	vals[95] = l6
	vals[100] = l7
	vals[105] = l8
	vals[109] = l9
	vals[112] = l10
	vals[115] = l11
	vals[118] = l12
	vals[121] = l13
	vals[124] = l14
	vals[127] = l15
	return cycles + 1, done
}

func step_stencil_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[122]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v11 := vals[11]
	v16 := vals[16]
	v39 := vals[39]
	v79 := vals[79]
	v85 := vals[85]
	v90 := vals[90]
	v95 := vals[95]
	v100 := vals[100]
	v104 := vals[104]
	v107 := vals[107]
	v110 := vals[110]
	v113 := vals[113]
	v116 := vals[116]
	v119 := vals[119]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v35 uint64
		if v16 != 0x0 {
			v35 = 1
		}
		v36 := (v16 - 0x1) & 0x7f
		var v37 uint64
		if v35 != 0 {
			v37 = v36
		} else {
			v37 = v16
		}
		switch v1 {
		case 0x0:
			v83 := (v79 + 0x1) & 0xffffff
			v105 := (v104 + 0x1) & 0xffffff
			v108 := (v107 + 0x2) & 0xffffff
			v111 := (v110 + v11) & 0xffffff
			v6 := v0
			v38 := v37
			v78 := v39
			v84 := v83
			v89 := v85
			v94 := v90
			v99 := v95
			v103 := v100
			v106 := v105
			v109 := v108
			v112 := v111
			v115 := v113
			v118 := v116
			v121 := v119
			n0 := v6
			n3 := v38
			n4 := v78
			n5 := v84
			n6 := v89
			n7 := v94
			n8 := v99
			n9 := v103
			n10 := v106
			n11 := v109
			n12 := v112
			n13 := v115
			n14 := v118
			n15 := v121
			v0 = n0
			v1 = 0x1
			v11 = 0x2
			v16 = n3
			v39 = n4
			v79 = n5
			v85 = n6
			v90 = n7
			v95 = n8
			v100 = n9
			v104 = n10
			v107 = n11
			v110 = n12
			v113 = n13
			v116 = n14
			v119 = n15
		case 0x1:
			var v12 uint64
			if v11 == 0x0 {
				v12 = 1
			}
			var v29 uint64
			if v11 != 0x0 {
				v29 = 1
			}
			v30 := (v11 - 0x1) & 0x7
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v11
			}
			var v34 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v34 = m0[addr] & 0x7f
			}
			v88 := (v85 + 0x1) & 0xffffff
			v114 := (v113 + 0x1) & 0xffffff
			v117 := (v116 + v34) & 0xffffff
			v120 := (v119 + v16) & 0xffffff
			v6 := v0
			var v14 uint64
			if v12 != 0 {
				v14 = 0x2
			} else {
				v14 = 0x1
			}
			v26 := v14
			v27 := v26
			v32 := v31
			v33 := v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			v78 := v39
			v84 := v79
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			v94 := v90
			v99 := v95
			v103 := v100
			v106 := v104
			v109 := v107
			v112 := v110
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			n0 := v6
			n1 := v27
			n2 := v32
			n3 := v38
			n4 := v78
			n5 := v84
			n6 := v89
			n7 := v94
			n8 := v99
			n9 := v103
			n10 := v106
			n11 := v109
			n12 := v112
			n13 := v115
			n14 := v118
			n15 := v121
			v0 = n0
			v1 = n1
			v11 = n2
			v16 = n3
			v39 = n4
			v79 = n5
			v85 = n6
			v90 = n7
			v95 = n8
			v100 = n9
			v104 = n10
			v107 = n11
			v110 = n12
			v113 = n13
			v116 = n14
			v119 = n15
		case 0x2:
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v29 uint64
			if v11 != 0x0 {
				v29 = 1
			}
			v30 := (v11 - 0x1) & 0x7
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v11
			}
			v41 := (v0 + 0x2) & 0x7f
			var v42 uint64
			if addr := uint64(v41); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0xffff
			}
			v43 := (v42 * v42) & 0xffffffff
			v44 := (v43 >> 1)
			v46 := v16
			v47 := (v44 ^ v46)
			v49 := (v47 * 0x2) & 0xffffffff
			v50 := (v43 + v49) & 0xffffffff
			v51 := (v47 >> 1)
			v52 := (v51 ^ v46)
			v53 := (v50 + v52) & 0xffffffff
			v54 := (v52 >> 1)
			v55 := (v54 ^ v46)
			v56 := (v55 * 0x2) & 0xffffffff
			v57 := (v53 + v56) & 0xffffffff
			v58 := (v55 >> 1)
			v59 := (v58 ^ v46)
			v61 := (v59 * 0x4) & 0xffffffff
			v62 := (v57 + v61) & 0xffffffff
			v63 := (v59 >> 1)
			v64 := (v63 ^ v46)
			v65 := (v64 * 0x2) & 0xffffffff
			v66 := (v62 + v65) & 0xffffffff
			v67 := (v64 >> 1)
			v68 := (v67 ^ v46)
			v69 := (v66 + v68) & 0xffffffff
			v70 := (v68 >> 1)
			v71 := (v70 ^ v46)
			v72 := (v71 * 0x2) & 0xffffffff
			v73 := (v69 + v72) & 0xffffffff
			v74 := (v71 >> 1)
			v75 := (v74 ^ v46)
			v76 := (v73 + v75) & 0xffffffff
			v77 := (v39 + v76) & 0xffffffff
			v93 := (v90 + 0x1) & 0xffffff
			v6 := v0
			var v19 uint64
			if v18 != 0 {
				v19 = 0x3
			} else {
				v19 = 0x2
			}
			v25 := v19
			v26 := v25
			v27 := v26
			v32 := v31
			v38 := v37
			v78 := v77
			v84 := v79
			v89 := v85
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			v99 := v95
			v103 := v100
			v106 := v104
			v109 := v107
			v112 := v110
			v115 := v113
			v118 := v116
			v121 := v119
			n0 := v6
			n1 := v27
			n2 := v32
			n3 := v38
			n4 := v78
			n5 := v84
			n6 := v89
			n7 := v94
			n8 := v99
			n9 := v103
			n10 := v106
			n11 := v109
			n12 := v112
			n13 := v115
			n14 := v118
			n15 := v121
			v0 = n0
			v1 = n1
			v11 = n2
			v16 = n3
			v39 = n4
			v79 = n5
			v85 = n6
			v90 = n7
			v95 = n8
			v100 = n9
			v104 = n10
			v107 = n11
			v110 = n12
			v113 = n13
			v116 = n14
			v119 = n15
		case 0x3:
			v5 := (v0 + 0x1) & 0x7f
			var v20 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v20 = m0[addr] & 0x7f
			}
			var v21 uint64
			if v20 <= v5 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			v98 := (v95 + 0x1) & 0xffffff
			v102 := (v100 + 0x1) & 0xffffff
			v105 := (v104 + 0x1) & 0xffffff
			v108 := (v107 + 0x2) & 0xffffff
			v111 := (v110 + v11) & 0xffffff
			v6 := v5
			v24 := v23
			v25 := v24
			v26 := v25
			v27 := v26
			v38 := v37
			v78 := v39
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v84 := v79
			v89 := v85
			v94 := v90
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			v106 := v105
			v109 := v108
			v112 := v111
			v115 := v113
			v118 := v116
			v121 := v119
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v39
			}
			n0 := v6
			n1 := v27
			n3 := v38
			n4 := v78
			n5 := v84
			n6 := v89
			n7 := v94
			n8 := v99
			n9 := v103
			n10 := v106
			n11 := v109
			n12 := v112
			n13 := v115
			n14 := v118
			n15 := v121
			v0 = n0
			v1 = n1
			v11 = 0x2
			v16 = n3
			v39 = n4
			v79 = n5
			v85 = n6
			v90 = n7
			v95 = n8
			v100 = n9
			v104 = n10
			v107 = n11
			v110 = n12
			v113 = n13
			v116 = n14
			v119 = n15
		case 0x4:
			break loop
		default:
			v5 := (v0 + 0x1) & 0x7f
			var v12 uint64
			if v11 == 0x0 {
				v12 = 1
			}
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v20 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v20 = m0[addr] & 0x7f
			}
			var v21 uint64
			if v20 <= v5 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			var v29 uint64
			if v11 != 0x0 {
				v29 = 1
			}
			v30 := (v11 - 0x1) & 0x7
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v11
			}
			var v34 uint64
			if addr := uint64(0x1); addr < uint64(len(m0)) {
				v34 = m0[addr] & 0x7f
			}
			v41 := (v0 + 0x2) & 0x7f
			var v42 uint64
			if addr := uint64(v41); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0xffff
			}
			v43 := (v42 * v42) & 0xffffffff
			v44 := (v43 >> 1)
			v46 := v16
			v47 := (v44 ^ v46)
			v49 := (v47 * 0x2) & 0xffffffff
			v50 := (v43 + v49) & 0xffffffff
			v51 := (v47 >> 1)
			v52 := (v51 ^ v46)
			v53 := (v50 + v52) & 0xffffffff
			v54 := (v52 >> 1)
			v55 := (v54 ^ v46)
			v56 := (v55 * 0x2) & 0xffffffff
			v57 := (v53 + v56) & 0xffffffff
			v58 := (v55 >> 1)
			v59 := (v58 ^ v46)
			v61 := (v59 * 0x4) & 0xffffffff
			v62 := (v57 + v61) & 0xffffffff
			v63 := (v59 >> 1)
			v64 := (v63 ^ v46)
			v65 := (v64 * 0x2) & 0xffffffff
			v66 := (v62 + v65) & 0xffffffff
			v67 := (v64 >> 1)
			v68 := (v67 ^ v46)
			v69 := (v66 + v68) & 0xffffffff
			v70 := (v68 >> 1)
			v71 := (v70 ^ v46)
			v72 := (v71 * 0x2) & 0xffffffff
			v73 := (v69 + v72) & 0xffffffff
			v74 := (v71 >> 1)
			v75 := (v74 ^ v46)
			v76 := (v73 + v75) & 0xffffffff
			v77 := (v39 + v76) & 0xffffffff
			v83 := (v79 + 0x1) & 0xffffff
			v88 := (v85 + 0x1) & 0xffffff
			v93 := (v90 + 0x1) & 0xffffff
			v98 := (v95 + 0x1) & 0xffffff
			v102 := (v100 + 0x1) & 0xffffff
			v105 := (v104 + 0x1) & 0xffffff
			v108 := (v107 + 0x2) & 0xffffff
			v111 := (v110 + v11) & 0xffffff
			v114 := (v113 + 0x1) & 0xffffff
			v117 := (v116 + v34) & 0xffffff
			v120 := (v119 + v16) & 0xffffff
			var v3 uint64
			if v1 == 0x3 {
				v3 = 1
			}
			var v6 uint64
			if v3 != 0 {
				v6 = v5
			} else {
				v6 = v0
			}
			var v8 uint64
			if v1 == 0x0 {
				v8 = 1
			}
			var v10 uint64
			if v1 == 0x1 {
				v10 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x2
			} else {
				v14 = v1
			}
			var v15 uint64
			if v1 == 0x2 {
				v15 = 1
			}
			var v19 uint64
			if v18 != 0 {
				v19 = 0x3
			} else {
				v19 = v1
			}
			var v24 uint64
			if v3 != 0 {
				v24 = v23
			} else {
				v24 = v1
			}
			var v25 uint64
			if v15 != 0 {
				v25 = v19
			} else {
				v25 = v24
			}
			var v26 uint64
			if v10 != 0 {
				v26 = v14
			} else {
				v26 = v25
			}
			var v27 uint64
			if v8 != 0 {
				v27 = 0x1
			} else {
				v27 = v26
			}
			v28 := (v8 | v3)
			var v32 uint64
			if v28 != 0 {
				v32 = 0x2
			} else {
				v32 = v31
			}
			v33 := v10 & v12
			var v38 uint64
			if v33 != 0 {
				v38 = v34
			} else {
				v38 = v37
			}
			var v78 uint64
			if v15 != 0 {
				v78 = v77
			} else {
				v78 = v39
			}
			var v80 uint64
			if v27 == 0x1 {
				v80 = 1
			}
			v81 := v8 & v80
			var v84 uint64
			if v81 != 0 {
				v84 = v83
			} else {
				v84 = v79
			}
			var v86 uint64
			if v27 == 0x2 {
				v86 = 1
			}
			v87 := v10 & v86
			var v89 uint64
			if v87 != 0 {
				v89 = v88
			} else {
				v89 = v85
			}
			var v91 uint64
			if v27 == 0x3 {
				v91 = 1
			}
			v92 := v15 & v91
			var v94 uint64
			if v92 != 0 {
				v94 = v93
			} else {
				v94 = v90
			}
			var v96 uint64
			if v27 == 0x4 {
				v96 = 1
			}
			v97 := v3 & v96
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v95
			}
			v101 := v3 & v80
			var v103 uint64
			if v101 != 0 {
				v103 = v102
			} else {
				v103 = v100
			}
			var v106 uint64
			if v28 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v109 uint64
			if v28 != 0 {
				v109 = v108
			} else {
				v109 = v107
			}
			var v112 uint64
			if v28 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v115 uint64
			if v33 != 0 {
				v115 = v114
			} else {
				v115 = v113
			}
			var v118 uint64
			if v33 != 0 {
				v118 = v117
			} else {
				v118 = v116
			}
			var v121 uint64
			if v33 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			var v122 uint64
			if v1 == 0x4 {
				v122 = 1
			}
			if v122 != 0 {
				break loop
			}
			if v3 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v39
				}
			}
			n0 := v6
			n1 := v27
			n2 := v32
			n3 := v38
			n4 := v78
			n5 := v84
			n6 := v89
			n7 := v94
			n8 := v99
			n9 := v103
			n10 := v106
			n11 := v109
			n12 := v112
			n13 := v115
			n14 := v118
			n15 := v121
			v0 = n0
			v1 = n1
			v11 = n2
			v16 = n3
			v39 = n4
			v79 = n5
			v85 = n6
			v90 = n7
			v95 = n8
			v100 = n9
			v104 = n10
			v107 = n11
			v110 = n12
			v113 = n13
			v116 = n14
			v119 = n15
		}
	}
	vals[0] = v0
	vals[1] = v1
	vals[11] = v11
	vals[16] = v16
	vals[39] = v39
	vals[79] = v79
	vals[85] = v85
	vals[90] = v90
	vals[95] = v95
	vals[100] = v100
	vals[104] = v104
	vals[107] = v107
	vals[110] = v110
	vals[113] = v113
	vals[116] = v116
	vals[119] = v119
	v5 := (v0 + 0x1) & 0x7f
	vals[5] = v5
	var v12 uint64
	if v11 == 0x0 {
		v12 = 1
	}
	vals[12] = v12
	var v18 uint64
	if v16 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v20 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v20 = m0[addr] & 0x7f
	}
	vals[20] = v20
	var v21 uint64
	if v20 <= v5 {
		v21 = 1
	}
	vals[21] = v21
	var v23 uint64
	if v21 != 0 {
		v23 = 0x4
	} else {
		v23 = 0x1
	}
	vals[23] = v23
	var v29 uint64
	if v11 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v30 := (v11 - 0x1) & 0x7
	vals[30] = v30
	var v31 uint64
	if v29 != 0 {
		v31 = v30
	} else {
		v31 = v11
	}
	vals[31] = v31
	var v34 uint64
	if addr := uint64(0x1); addr < uint64(len(m0)) {
		v34 = m0[addr] & 0x7f
	}
	vals[34] = v34
	var v35 uint64
	if v16 != 0x0 {
		v35 = 1
	}
	vals[35] = v35
	v36 := (v16 - 0x1) & 0x7f
	vals[36] = v36
	var v37 uint64
	if v35 != 0 {
		v37 = v36
	} else {
		v37 = v16
	}
	vals[37] = v37
	v41 := (v0 + 0x2) & 0x7f
	vals[41] = v41
	var v42 uint64
	if addr := uint64(v41); addr < uint64(len(m0)) {
		v42 = m0[addr] & 0xffff
	}
	vals[42] = v42
	v43 := (v42 * v42) & 0xffffffff
	vals[43] = v43
	v44 := (v43 >> 1)
	vals[44] = v44
	v46 := v16
	vals[46] = v46
	v47 := (v44 ^ v46)
	vals[47] = v47
	v49 := (v47 * 0x2) & 0xffffffff
	vals[49] = v49
	v50 := (v43 + v49) & 0xffffffff
	vals[50] = v50
	v51 := (v47 >> 1)
	vals[51] = v51
	v52 := (v51 ^ v46)
	vals[52] = v52
	v53 := (v50 + v52) & 0xffffffff
	vals[53] = v53
	v54 := (v52 >> 1)
	vals[54] = v54
	v55 := (v54 ^ v46)
	vals[55] = v55
	v56 := (v55 * 0x2) & 0xffffffff
	vals[56] = v56
	v57 := (v53 + v56) & 0xffffffff
	vals[57] = v57
	v58 := (v55 >> 1)
	vals[58] = v58
	v59 := (v58 ^ v46)
	vals[59] = v59
	v61 := (v59 * 0x4) & 0xffffffff
	vals[61] = v61
	v62 := (v57 + v61) & 0xffffffff
	vals[62] = v62
	v63 := (v59 >> 1)
	vals[63] = v63
	v64 := (v63 ^ v46)
	vals[64] = v64
	v65 := (v64 * 0x2) & 0xffffffff
	vals[65] = v65
	v66 := (v62 + v65) & 0xffffffff
	vals[66] = v66
	v67 := (v64 >> 1)
	vals[67] = v67
	v68 := (v67 ^ v46)
	vals[68] = v68
	v69 := (v66 + v68) & 0xffffffff
	vals[69] = v69
	v70 := (v68 >> 1)
	vals[70] = v70
	v71 := (v70 ^ v46)
	vals[71] = v71
	v72 := (v71 * 0x2) & 0xffffffff
	vals[72] = v72
	v73 := (v69 + v72) & 0xffffffff
	vals[73] = v73
	v74 := (v71 >> 1)
	vals[74] = v74
	v75 := (v74 ^ v46)
	vals[75] = v75
	v76 := (v73 + v75) & 0xffffffff
	vals[76] = v76
	v77 := (v39 + v76) & 0xffffffff
	vals[77] = v77
	v83 := (v79 + 0x1) & 0xffffff
	vals[83] = v83
	v88 := (v85 + 0x1) & 0xffffff
	vals[88] = v88
	v93 := (v90 + 0x1) & 0xffffff
	vals[93] = v93
	v98 := (v95 + 0x1) & 0xffffff
	vals[98] = v98
	v102 := (v100 + 0x1) & 0xffffff
	vals[102] = v102
	v105 := (v104 + 0x1) & 0xffffff
	vals[105] = v105
	v108 := (v107 + 0x2) & 0xffffff
	vals[108] = v108
	v111 := (v110 + v11) & 0xffffff
	vals[111] = v111
	v114 := (v113 + 0x1) & 0xffffff
	vals[114] = v114
	v117 := (v116 + v34) & 0xffffff
	vals[117] = v117
	v120 := (v119 + v16) & 0xffffff
	vals[120] = v120
	switch v1 {
	case 0x0:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x1
		vals[10] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = 0x0
		}
		vals[14] = v14
		vals[15] = 0x0
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = 0x0
		}
		vals[19] = v19
		vals[24] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[27] = 0x1
		vals[28] = 0x1
		vals[32] = 0x2
		vals[33] = 0x0
		v38 := v37
		vals[38] = v38
		v78 := v39
		vals[78] = v78
		vals[80] = 0x1
		vals[81] = 0x1
		v84 := v83
		vals[84] = v84
		vals[86] = 0x0
		vals[87] = 0x0
		v89 := v85
		vals[89] = v89
		vals[91] = 0x0
		vals[92] = 0x0
		v94 := v90
		vals[94] = v94
		vals[96] = 0x0
		vals[97] = 0x0
		v99 := v95
		vals[99] = v99
		vals[101] = 0x0
		v103 := v100
		vals[103] = v103
		v106 := v105
		vals[106] = v106
		v109 := v108
		vals[109] = v109
		v112 := v111
		vals[112] = v112
		v115 := v113
		vals[115] = v115
		v118 := v116
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		vals[122] = 0x0
	case 0x1:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x1
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = 0x1
		}
		vals[14] = v14
		vals[15] = 0x0
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = 0x1
		}
		vals[19] = v19
		vals[24] = 0x1
		vals[25] = 0x1
		v26 := v14
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		vals[28] = 0x0
		v32 := v31
		vals[32] = v32
		v33 := v12
		vals[33] = v33
		var v38 uint64
		if v33 != 0 {
			v38 = v34
		} else {
			v38 = v37
		}
		vals[38] = v38
		v78 := v39
		vals[78] = v78
		var v80 uint64
		if v27 == 0x1 {
			v80 = 1
		}
		vals[80] = v80
		vals[81] = 0x0
		v84 := v79
		vals[84] = v84
		var v86 uint64
		if v27 == 0x2 {
			v86 = 1
		}
		vals[86] = v86
		v87 := v86
		vals[87] = v87
		var v89 uint64
		if v87 != 0 {
			v89 = v88
		} else {
			v89 = v85
		}
		vals[89] = v89
		var v91 uint64
		if v27 == 0x3 {
			v91 = 1
		}
		vals[91] = v91
		vals[92] = 0x0
		v94 := v90
		vals[94] = v94
		var v96 uint64
		if v27 == 0x4 {
			v96 = 1
		}
		vals[96] = v96
		vals[97] = 0x0
		v99 := v95
		vals[99] = v99
		vals[101] = 0x0
		v103 := v100
		vals[103] = v103
		v106 := v104
		vals[106] = v106
		v109 := v107
		vals[109] = v109
		v112 := v110
		vals[112] = v112
		var v115 uint64
		if v33 != 0 {
			v115 = v114
		} else {
			v115 = v113
		}
		vals[115] = v115
		var v118 uint64
		if v33 != 0 {
			v118 = v117
		} else {
			v118 = v116
		}
		vals[118] = v118
		var v121 uint64
		if v33 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		vals[122] = 0x0
	case 0x2:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = 0x2
		}
		vals[14] = v14
		vals[15] = 0x1
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = 0x2
		}
		vals[19] = v19
		vals[24] = 0x2
		v25 := v19
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		vals[28] = 0x0
		v32 := v31
		vals[32] = v32
		vals[33] = 0x0
		v38 := v37
		vals[38] = v38
		v78 := v77
		vals[78] = v78
		var v80 uint64
		if v27 == 0x1 {
			v80 = 1
		}
		vals[80] = v80
		vals[81] = 0x0
		v84 := v79
		vals[84] = v84
		var v86 uint64
		if v27 == 0x2 {
			v86 = 1
		}
		vals[86] = v86
		vals[87] = 0x0
		v89 := v85
		vals[89] = v89
		var v91 uint64
		if v27 == 0x3 {
			v91 = 1
		}
		vals[91] = v91
		v92 := v91
		vals[92] = v92
		var v94 uint64
		if v92 != 0 {
			v94 = v93
		} else {
			v94 = v90
		}
		vals[94] = v94
		var v96 uint64
		if v27 == 0x4 {
			v96 = 1
		}
		vals[96] = v96
		vals[97] = 0x0
		v99 := v95
		vals[99] = v99
		vals[101] = 0x0
		v103 := v100
		vals[103] = v103
		v106 := v104
		vals[106] = v106
		v109 := v107
		vals[109] = v109
		v112 := v110
		vals[112] = v112
		v115 := v113
		vals[115] = v115
		v118 := v116
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		vals[122] = 0x0
	case 0x3:
		vals[3] = 0x1
		v6 := v5
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = 0x3
		}
		vals[14] = v14
		vals[15] = 0x0
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = 0x3
		}
		vals[19] = v19
		v24 := v23
		vals[24] = v24
		v25 := v24
		vals[25] = v25
		v26 := v25
		vals[26] = v26
		v27 := v26
		vals[27] = v27
		vals[28] = 0x1
		vals[32] = 0x2
		vals[33] = 0x0
		v38 := v37
		vals[38] = v38
		v78 := v39
		vals[78] = v78
		var v80 uint64
		if v27 == 0x1 {
			v80 = 1
		}
		vals[80] = v80
		vals[81] = 0x0
		v84 := v79
		vals[84] = v84
		var v86 uint64
		if v27 == 0x2 {
			v86 = 1
		}
		vals[86] = v86
		vals[87] = 0x0
		v89 := v85
		vals[89] = v89
		var v91 uint64
		if v27 == 0x3 {
			v91 = 1
		}
		vals[91] = v91
		vals[92] = 0x0
		v94 := v90
		vals[94] = v94
		var v96 uint64
		if v27 == 0x4 {
			v96 = 1
		}
		vals[96] = v96
		v97 := v96
		vals[97] = v97
		var v99 uint64
		if v97 != 0 {
			v99 = v98
		} else {
			v99 = v95
		}
		vals[99] = v99
		v101 := v80
		vals[101] = v101
		var v103 uint64
		if v101 != 0 {
			v103 = v102
		} else {
			v103 = v100
		}
		vals[103] = v103
		v106 := v105
		vals[106] = v106
		v109 := v108
		vals[109] = v109
		v112 := v111
		vals[112] = v112
		v115 := v113
		vals[115] = v115
		v118 := v116
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		vals[122] = 0x0
	case 0x4:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = 0x4
		}
		vals[14] = v14
		vals[15] = 0x0
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = 0x4
		}
		vals[19] = v19
		vals[24] = 0x4
		vals[25] = 0x4
		vals[26] = 0x4
		vals[27] = 0x4
		vals[28] = 0x0
		v32 := v31
		vals[32] = v32
		vals[33] = 0x0
		v38 := v37
		vals[38] = v38
		v78 := v39
		vals[78] = v78
		vals[80] = 0x0
		vals[81] = 0x0
		v84 := v79
		vals[84] = v84
		vals[86] = 0x0
		vals[87] = 0x0
		v89 := v85
		vals[89] = v89
		vals[91] = 0x0
		vals[92] = 0x0
		v94 := v90
		vals[94] = v94
		vals[96] = 0x1
		vals[97] = 0x0
		v99 := v95
		vals[99] = v99
		vals[101] = 0x0
		v103 := v100
		vals[103] = v103
		v106 := v104
		vals[106] = v106
		v109 := v107
		vals[109] = v109
		v112 := v110
		vals[112] = v112
		v115 := v113
		vals[115] = v115
		v118 := v116
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		vals[122] = 0x1
	default:
		var v3 uint64
		if v1 == 0x3 {
			v3 = 1
		}
		vals[3] = v3
		var v6 uint64
		if v3 != 0 {
			v6 = v5
		} else {
			v6 = v0
		}
		vals[6] = v6
		var v8 uint64
		if v1 == 0x0 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v1 == 0x1 {
			v10 = 1
		}
		vals[10] = v10
		var v14 uint64
		if v12 != 0 {
			v14 = 0x2
		} else {
			v14 = v1
		}
		vals[14] = v14
		var v15 uint64
		if v1 == 0x2 {
			v15 = 1
		}
		vals[15] = v15
		var v19 uint64
		if v18 != 0 {
			v19 = 0x3
		} else {
			v19 = v1
		}
		vals[19] = v19
		var v24 uint64
		if v3 != 0 {
			v24 = v23
		} else {
			v24 = v1
		}
		vals[24] = v24
		var v25 uint64
		if v15 != 0 {
			v25 = v19
		} else {
			v25 = v24
		}
		vals[25] = v25
		var v26 uint64
		if v10 != 0 {
			v26 = v14
		} else {
			v26 = v25
		}
		vals[26] = v26
		var v27 uint64
		if v8 != 0 {
			v27 = 0x1
		} else {
			v27 = v26
		}
		vals[27] = v27
		v28 := (v8 | v3)
		vals[28] = v28
		var v32 uint64
		if v28 != 0 {
			v32 = 0x2
		} else {
			v32 = v31
		}
		vals[32] = v32
		v33 := v10 & v12
		vals[33] = v33
		var v38 uint64
		if v33 != 0 {
			v38 = v34
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v78 uint64
		if v15 != 0 {
			v78 = v77
		} else {
			v78 = v39
		}
		vals[78] = v78
		var v80 uint64
		if v27 == 0x1 {
			v80 = 1
		}
		vals[80] = v80
		v81 := v8 & v80
		vals[81] = v81
		var v84 uint64
		if v81 != 0 {
			v84 = v83
		} else {
			v84 = v79
		}
		vals[84] = v84
		var v86 uint64
		if v27 == 0x2 {
			v86 = 1
		}
		vals[86] = v86
		v87 := v10 & v86
		vals[87] = v87
		var v89 uint64
		if v87 != 0 {
			v89 = v88
		} else {
			v89 = v85
		}
		vals[89] = v89
		var v91 uint64
		if v27 == 0x3 {
			v91 = 1
		}
		vals[91] = v91
		v92 := v15 & v91
		vals[92] = v92
		var v94 uint64
		if v92 != 0 {
			v94 = v93
		} else {
			v94 = v90
		}
		vals[94] = v94
		var v96 uint64
		if v27 == 0x4 {
			v96 = 1
		}
		vals[96] = v96
		v97 := v3 & v96
		vals[97] = v97
		var v99 uint64
		if v97 != 0 {
			v99 = v98
		} else {
			v99 = v95
		}
		vals[99] = v99
		v101 := v3 & v80
		vals[101] = v101
		var v103 uint64
		if v101 != 0 {
			v103 = v102
		} else {
			v103 = v100
		}
		vals[103] = v103
		var v106 uint64
		if v28 != 0 {
			v106 = v105
		} else {
			v106 = v104
		}
		vals[106] = v106
		var v109 uint64
		if v28 != 0 {
			v109 = v108
		} else {
			v109 = v107
		}
		vals[109] = v109
		var v112 uint64
		if v28 != 0 {
			v112 = v111
		} else {
			v112 = v110
		}
		vals[112] = v112
		var v115 uint64
		if v33 != 0 {
			v115 = v114
		} else {
			v115 = v113
		}
		vals[115] = v115
		var v118 uint64
		if v33 != 0 {
			v118 = v117
		} else {
			v118 = v116
		}
		vals[118] = v118
		var v121 uint64
		if v33 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		var v122 uint64
		if v1 == 0x4 {
			v122 = 1
		}
		vals[122] = v122
	}
	done := vals[122] != 0
	if vals[3] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[39]
		}
	}
	l0 := vals[6] & 0x7f
	l1 := vals[27] & 0x7
	l2 := vals[32] & 0x7
	l3 := vals[38] & 0x7f
	l4 := vals[78] & 0xffffffff
	l5 := vals[84] & 0xffffff
	l6 := vals[89] & 0xffffff
	l7 := vals[94] & 0xffffff
	l8 := vals[99] & 0xffffff
	l9 := vals[103] & 0xffffff
	l10 := vals[106] & 0xffffff
	l11 := vals[109] & 0xffffff
	l12 := vals[112] & 0xffffff
	l13 := vals[115] & 0xffffff
	l14 := vals[118] & 0xffffff
	l15 := vals[121] & 0xffffff
	vals[0] = l0
	vals[1] = l1
	vals[11] = l2
	vals[16] = l3
	vals[39] = l4
	vals[79] = l5
	vals[85] = l6
	vals[90] = l7
	vals[95] = l8
	vals[100] = l9
	vals[104] = l10
	vals[107] = l11
	vals[110] = l12
	vals[113] = l13
	vals[116] = l14
	vals[119] = l15
	return cycles + 1, done
}

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
	rtl.RegisterNative("2e9becaef6b2d11ff4abb9b823bb0b5fbd77f08a4875fbb75e47a7c57fb7cfb7", "stencil", step_stencil)
	rtl.RegisterNative("01271f0e59b5b9ac0d9a51ac82f807ec5493c1a90582350981eef20ba03b63cb", "stencil_ins", step_stencil_ins)
	rtl.RegisterNative("b755c08a24d4dd3cbea12fa3569634b8e271aa7e06a31111b3622a4bde374399", "stencil_pruned", step_stencil_pruned)
	rtl.RegisterNative("40080459c7753f5e0d230bf375cbd5aa3812bf6c423a9bd0d9983ae1325f5f8c", "stencil_cone", step_stencil_cone)
	rtl.RegisterNative("78ad64c70e827f8f73f19df51cedfef177b31472078509f2e51d99a86712f57f", "stencil_slice_all", step_stencil_slice_all)
	rtl.RegisterNative("cbe54fb5e215dd9d7ce8c0b9050041a06210d68fe146ed654cc6f795db375526", "stencil_slice_t42", step_stencil_slice_t42)
}
