// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_djpeg_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[76]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v13 := vals[13]
	v19 := vals[19]
	v27 := vals[27]
	v69 := vals[69]
	v73 := vals[73]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v42 uint64
		if v19 != 0x0 {
			v42 = 1
		}
		v44 := (v19 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v19
		}
		var v53 uint64
		if v13 != 0x0 {
			v53 = 1
		}
		v55 := (v13 - 0x1) & 0x3f
		var v56 uint64
		if v53 != 0 {
			v56 = v55
		} else {
			v56 = v13
		}
		switch v0 {
		case 0x0:
			v39 := v27
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = 0x1
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x1:
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v59 := (v48 >> 6)
			v61 := v59 & 0xfffff
			v39 := v27
			v46 := v45
			v57 := v56
			v68 := v61
			v72 := v69
			v75 := v73
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = 0x2
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v50 := v48 & 0x3f
			v52 := (v50 >> 1)
			v63 := v7 & 0x1
			v65 := (v63 + 0x1) & 0x3
			var v66 uint64
			if sh := v65; sh < 64 {
				v66 = (v7 >> sh) & 0xfffff
			}
			v74 := (v73 + 0x1) & 0xffffff
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v34 := v11
			v35 := v34
			v36 := v35
			v39 := v27
			v46 := v45
			v47 := v9
			var v57 uint64
			if v47 != 0 {
				v57 = v52
			} else {
				v57 = v56
			}
			v67 := v66
			v68 := v67
			v72 := v69
			var v75 uint64
			if v47 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x3:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			v71 := (v69 + 0x1) & 0xffffff
			var v17 uint64
			if v15 != 0 {
				v17 = 0x4
			} else {
				v17 = 0x3
			}
			v33 := v17
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v27
			v40 := v15
			var v46 uint64
			if v40 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v57 := v56
			v67 := v7
			v68 := v67
			var v72 uint64
			if v40 != 0 {
				v72 = v71
			} else {
				v72 = v69
			}
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x4:
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x5
			} else {
				v23 = 0x4
			}
			v32 := v23
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v27
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x5:
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v28 uint64
			if v26 <= v27 {
				v28 = 1
			}
			var v30 uint64
			if v28 != 0 {
				v30 = 0x6
			} else {
				v30 = 0x1
			}
			v38 := (v27 + 0x1) & 0x7ff
			v31 := v30
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v38
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x6:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v28 uint64
			if v26 <= v27 {
				v28 = 1
			}
			var v30 uint64
			if v28 != 0 {
				v30 = 0x6
			} else {
				v30 = 0x1
			}
			v38 := (v27 + 0x1) & 0x7ff
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v50 := v48 & 0x3f
			v52 := (v50 >> 1)
			v59 := (v48 >> 6)
			v61 := v59 & 0xfffff
			v63 := v7 & 0x1
			v65 := (v63 + 0x1) & 0x3
			var v66 uint64
			if sh := v65; sh < 64 {
				v66 = (v7 >> sh) & 0xfffff
			}
			v71 := (v69 + 0x1) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
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
			var v17 uint64
			if v15 != 0 {
				v17 = 0x4
			} else {
				v17 = v0
			}
			var v18 uint64
			if v0 == 0x4 {
				v18 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x5
			} else {
				v23 = v0
			}
			var v24 uint64
			if v0 == 0x5 {
				v24 = 1
			}
			var v31 uint64
			if v24 != 0 {
				v31 = v30
			} else {
				v31 = v0
			}
			var v32 uint64
			if v18 != 0 {
				v32 = v23
			} else {
				v32 = v31
			}
			var v33 uint64
			if v12 != 0 {
				v33 = v17
			} else {
				v33 = v32
			}
			var v34 uint64
			if v6 != 0 {
				v34 = v11
			} else {
				v34 = v33
			}
			var v35 uint64
			if v4 != 0 {
				v35 = 0x2
			} else {
				v35 = v34
			}
			var v36 uint64
			if v2 != 0 {
				v36 = 0x1
			} else {
				v36 = v35
			}
			var v39 uint64
			if v24 != 0 {
				v39 = v38
			} else {
				v39 = v27
			}
			v40 := v12 & v15
			var v46 uint64
			if v40 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v47 := v6 & v9
			var v57 uint64
			if v47 != 0 {
				v57 = v52
			} else {
				v57 = v56
			}
			var v67 uint64
			if v6 != 0 {
				v67 = v66
			} else {
				v67 = v7
			}
			var v68 uint64
			if v4 != 0 {
				v68 = v61
			} else {
				v68 = v67
			}
			var v72 uint64
			if v40 != 0 {
				v72 = v71
			} else {
				v72 = v69
			}
			var v75 uint64
			if v47 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			var v76 uint64
			if v0 == 0x6 {
				v76 = 1
			}
			if v76 != 0 {
				break loop
			}
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		}
	}
	vals[0] = v0
	vals[27] = v27
	vals[19] = v19
	vals[13] = v13
	vals[7] = v7
	vals[69] = v69
	vals[73] = v73
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v21 uint64
	if v19 == 0x0 {
		v21 = 1
	}
	vals[21] = v21
	var v26 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7ff
	}
	vals[26] = v26
	var v28 uint64
	if v26 <= v27 {
		v28 = 1
	}
	vals[28] = v28
	var v30 uint64
	if v28 != 0 {
		v30 = 0x6
	} else {
		v30 = 0x1
	}
	vals[30] = v30
	v38 := (v27 + 0x1) & 0x7ff
	vals[38] = v38
	var v42 uint64
	if v19 != 0x0 {
		v42 = 1
	}
	vals[42] = v42
	v44 := (v19 - 0x1) & 0xf
	vals[44] = v44
	var v45 uint64
	if v42 != 0 {
		v45 = v44
	} else {
		v45 = v19
	}
	vals[45] = v45
	var v48 uint64
	if addr := uint64(v27); addr < uint64(len(m0)) {
		v48 = m0[addr] & 0x3ffffff
	}
	vals[48] = v48
	v50 := v48 & 0x3f
	vals[50] = v50
	v52 := (v50 >> 1)
	vals[52] = v52
	var v53 uint64
	if v13 != 0x0 {
		v53 = 1
	}
	vals[53] = v53
	v55 := (v13 - 0x1) & 0x3f
	vals[55] = v55
	var v56 uint64
	if v53 != 0 {
		v56 = v55
	} else {
		v56 = v13
	}
	vals[56] = v56
	v59 := (v48 >> 6)
	vals[59] = v59
	v61 := v59 & 0xfffff
	vals[61] = v61
	v63 := v7 & 0x1
	vals[63] = v63
	v65 := (v63 + 0x1) & 0x3
	vals[65] = v65
	var v66 uint64
	if sh := v65; sh < 64 {
		v66 = (v7 >> sh) & 0xfffff
	}
	vals[66] = v66
	v71 := (v69 + 0x1) & 0xffffff
	vals[71] = v71
	v74 := (v73 + 0x1) & 0xffffff
	vals[74] = v74
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x0
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x0
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x0
		vals[32] = 0x0
		vals[33] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x1
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x1
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x1
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x1
		vals[32] = 0x1
		vals[33] = 0x1
		vals[34] = 0x1
		vals[35] = 0x2
		vals[36] = 0x2
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v61
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x2
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x2
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x2
		vals[32] = 0x2
		vals[33] = 0x2
		v34 := v11
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		v47 := v9
		vals[47] = v47
		var v57 uint64
		if v47 != 0 {
			v57 = v52
		} else {
			v57 = v56
		}
		vals[57] = v57
		v67 := v66
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		var v75 uint64
		if v47 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x3
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x3
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x3
		vals[32] = 0x3
		v33 := v17
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		v40 := v15
		vals[40] = v40
		var v46 uint64
		if v40 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		var v72 uint64
		if v40 != 0 {
			v72 = v71
		} else {
			v72 = v69
		}
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x4
		}
		vals[17] = v17
		vals[18] = 0x1
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x4
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x4
		v32 := v23
		vals[32] = v32
		v33 := v32
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x5
		}
		vals[11] = v11
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x5
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x5
		}
		vals[23] = v23
		vals[24] = 0x1
		v31 := v30
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v33 := v32
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v38
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x6
		}
		vals[11] = v11
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x6
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x6
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x6
		vals[32] = 0x6
		vals[33] = 0x6
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x6
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x1
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = v0
		}
		vals[17] = v17
		var v18 uint64
		if v0 == 0x4 {
			v18 = 1
		}
		vals[18] = v18
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = v0
		}
		vals[23] = v23
		var v24 uint64
		if v0 == 0x5 {
			v24 = 1
		}
		vals[24] = v24
		var v31 uint64
		if v24 != 0 {
			v31 = v30
		} else {
			v31 = v0
		}
		vals[31] = v31
		var v32 uint64
		if v18 != 0 {
			v32 = v23
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v33 uint64
		if v12 != 0 {
			v33 = v17
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v34 uint64
		if v6 != 0 {
			v34 = v11
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v35 uint64
		if v4 != 0 {
			v35 = 0x2
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v2 != 0 {
			v36 = 0x1
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v39 uint64
		if v24 != 0 {
			v39 = v38
		} else {
			v39 = v27
		}
		vals[39] = v39
		v40 := v12 & v15
		vals[40] = v40
		var v46 uint64
		if v40 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		v47 := v6 & v9
		vals[47] = v47
		var v57 uint64
		if v47 != 0 {
			v57 = v52
		} else {
			v57 = v56
		}
		vals[57] = v57
		var v67 uint64
		if v6 != 0 {
			v67 = v66
		} else {
			v67 = v7
		}
		vals[67] = v67
		var v68 uint64
		if v4 != 0 {
			v68 = v61
		} else {
			v68 = v67
		}
		vals[68] = v68
		var v72 uint64
		if v40 != 0 {
			v72 = v71
		} else {
			v72 = v69
		}
		vals[72] = v72
		var v75 uint64
		if v47 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		var v76 uint64
		if v0 == 0x6 {
			v76 = 1
		}
		vals[76] = v76
	}
	done := vals[76] != 0
	l0 := vals[36] & 0x7
	l1 := vals[39] & 0x7ff
	l2 := vals[46] & 0xf
	l3 := vals[57] & 0x3f
	l4 := vals[68] & 0xfffff
	l5 := vals[72] & 0xffffff
	l6 := vals[75] & 0xffffff
	vals[0] = l0
	vals[27] = l1
	vals[19] = l2
	vals[13] = l3
	vals[7] = l4
	vals[69] = l5
	vals[73] = l6
	return cycles + 1, done
}

func step_djpeg_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[84]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v30 := vals[30]
	v34 := vals[34]
	v38 := vals[38]
	v39 := vals[39]
	v47 := vals[47]
	v50 := vals[50]
	v55 := vals[55]
	v60 := vals[60]
	v65 := vals[65]
	v70 := vals[70]
	v75 := vals[75]
	v80 := vals[80]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v82 := (v80 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v82
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x1
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x1:
			v78 := (v75 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v78
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x2
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x2:
			var v40 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := v40 & 0x3f
			v44 := (v42 >> 1)
			v45 := (v39 + v44) & 0xffffff
			v48 := (v47 + 0x1) & 0xffffff
			v73 := (v70 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v45
			v49 := v48
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v73
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x3
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x3:
			v32 := (v30 + 0xc) & 0xffffff
			v36 := (v34 + 0x1) & 0xffffff
			v68 := (v65 + 0x1) & 0xffffff
			v27 := v15
			v33 := v32
			v37 := v36
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v68
			v74 := v70
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x4
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x4:
			v63 := (v60 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v63
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x5
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x5:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v53 := (v50 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			n0 := v24
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x6:
			break loop
		default:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v32 := (v30 + 0xc) & 0xffffff
			v36 := (v34 + 0x1) & 0xffffff
			var v40 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := v40 & 0x3f
			v44 := (v42 >> 1)
			v45 := (v39 + v44) & 0xffffff
			v48 := (v47 + 0x1) & 0xffffff
			v53 := (v50 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v63 := (v60 + 0x1) & 0xffffff
			v68 := (v65 + 0x1) & 0xffffff
			v73 := (v70 + 0x1) & 0xffffff
			v78 := (v75 + 0x1) & 0xffffff
			v82 := (v80 + 0x1) & 0xffffff
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v33 uint64
			if v8 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v37 uint64
			if v8 != 0 {
				v37 = v36
			} else {
				v37 = v34
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v39
			}
			var v49 uint64
			if v6 != 0 {
				v49 = v48
			} else {
				v49 = v47
			}
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := v12 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := v12 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			var v61 uint64
			if v24 == 0x5 {
				v61 = 1
			}
			v62 := v10 & v61
			var v64 uint64
			if v62 != 0 {
				v64 = v63
			} else {
				v64 = v60
			}
			var v66 uint64
			if v24 == 0x4 {
				v66 = 1
			}
			v67 := v8 & v66
			var v69 uint64
			if v67 != 0 {
				v69 = v68
			} else {
				v69 = v65
			}
			var v71 uint64
			if v24 == 0x3 {
				v71 = 1
			}
			v72 := v6 & v71
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v70
			}
			var v76 uint64
			if v24 == 0x2 {
				v76 = 1
			}
			v77 := v4 & v76
			var v79 uint64
			if v77 != 0 {
				v79 = v78
			} else {
				v79 = v75
			}
			v81 := v2 & v51
			var v83 uint64
			if v81 != 0 {
				v83 = v82
			} else {
				v83 = v80
			}
			var v84 uint64
			if v0 == 0x6 {
				v84 = 1
			}
			if v84 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[30] = v30
	vals[34] = v34
	vals[38] = v38
	vals[39] = v39
	vals[47] = v47
	vals[50] = v50
	vals[55] = v55
	vals[60] = v60
	vals[65] = v65
	vals[70] = v70
	vals[75] = v75
	vals[80] = v80
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x7ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x6
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v26 := (v15 + 0x1) & 0x7ff
	vals[26] = v26
	v32 := (v30 + 0xc) & 0xffffff
	vals[32] = v32
	v36 := (v34 + 0x1) & 0xffffff
	vals[36] = v36
	var v40 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v40 = m0[addr] & 0x3ffffff
	}
	vals[40] = v40
	v42 := v40 & 0x3f
	vals[42] = v42
	v44 := (v42 >> 1)
	vals[44] = v44
	v45 := (v39 + v44) & 0xffffff
	vals[45] = v45
	v48 := (v47 + 0x1) & 0xffffff
	vals[48] = v48
	v53 := (v50 + 0x1) & 0xffffff
	vals[53] = v53
	v58 := (v55 + 0x1) & 0xffffff
	vals[58] = v58
	v63 := (v60 + 0x1) & 0xffffff
	vals[63] = v63
	v68 := (v65 + 0x1) & 0xffffff
	vals[68] = v68
	v73 := (v70 + 0x1) & 0xffffff
	vals[73] = v73
	v78 := (v75 + 0x1) & 0xffffff
	vals[78] = v78
	v82 := (v80 + 0x1) & 0xffffff
	vals[82] = v82
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[24] = 0x1
		v27 := v15
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x1
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x1
		v83 := v82
		vals[83] = v83
		vals[84] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x1
		vals[23] = 0x2
		vals[24] = 0x2
		v27 := v15
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
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
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x1
		vals[77] = 0x1
		v79 := v78
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x2
		vals[22] = 0x3
		vals[23] = 0x3
		vals[24] = 0x3
		v27 := v15
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v45
		vals[46] = v46
		v49 := v48
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
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x1
		vals[72] = 0x1
		v74 := v73
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x3
		vals[20] = 0x3
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[24] = 0x4
		v27 := v15
		vals[27] = v27
		v33 := v32
		vals[33] = v33
		v37 := v36
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
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
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x1
		vals[67] = 0x1
		v69 := v68
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[24] = 0x5
		v27 := v15
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
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
		vals[62] = 0x1
		v64 := v63
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v27 := v26
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		var v51 uint64
		if v24 == 0x1 {
			v51 = 1
		}
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		var v54 uint64
		if v52 != 0 {
			v54 = v53
		} else {
			v54 = v50
		}
		vals[54] = v54
		var v56 uint64
		if v24 == 0x6 {
			v56 = 1
		}
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		var v59 uint64
		if v57 != 0 {
			v59 = v58
		} else {
			v59 = v55
		}
		vals[59] = v59
		var v61 uint64
		if v24 == 0x5 {
			v61 = 1
		}
		vals[61] = v61
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		var v66 uint64
		if v24 == 0x4 {
			v66 = 1
		}
		vals[66] = v66
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		var v71 uint64
		if v24 == 0x3 {
			v71 = 1
		}
		vals[71] = v71
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		var v76 uint64
		if v24 == 0x2 {
			v76 = 1
		}
		vals[76] = v76
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[24] = 0x6
		v27 := v15
		vals[27] = v27
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x1
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x1
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
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
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
		if v10 != 0 {
			v20 = 0x5
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = 0x4
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v6 != 0 {
			v22 = 0x3
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v4 != 0 {
			v23 = 0x2
		} else {
			v23 = v22
		}
		vals[23] = v23
		var v24 uint64
		if v2 != 0 {
			v24 = 0x1
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v27 uint64
		if v12 != 0 {
			v27 = v26
		} else {
			v27 = v15
		}
		vals[27] = v27
		var v33 uint64
		if v8 != 0 {
			v33 = v32
		} else {
			v33 = v30
		}
		vals[33] = v33
		var v37 uint64
		if v8 != 0 {
			v37 = v36
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v46 uint64
		if v6 != 0 {
			v46 = v45
		} else {
			v46 = v39
		}
		vals[46] = v46
		var v49 uint64
		if v6 != 0 {
			v49 = v48
		} else {
			v49 = v47
		}
		vals[49] = v49
		var v51 uint64
		if v24 == 0x1 {
			v51 = 1
		}
		vals[51] = v51
		v52 := v12 & v51
		vals[52] = v52
		var v54 uint64
		if v52 != 0 {
			v54 = v53
		} else {
			v54 = v50
		}
		vals[54] = v54
		var v56 uint64
		if v24 == 0x6 {
			v56 = 1
		}
		vals[56] = v56
		v57 := v12 & v56
		vals[57] = v57
		var v59 uint64
		if v57 != 0 {
			v59 = v58
		} else {
			v59 = v55
		}
		vals[59] = v59
		var v61 uint64
		if v24 == 0x5 {
			v61 = 1
		}
		vals[61] = v61
		v62 := v10 & v61
		vals[62] = v62
		var v64 uint64
		if v62 != 0 {
			v64 = v63
		} else {
			v64 = v60
		}
		vals[64] = v64
		var v66 uint64
		if v24 == 0x4 {
			v66 = 1
		}
		vals[66] = v66
		v67 := v8 & v66
		vals[67] = v67
		var v69 uint64
		if v67 != 0 {
			v69 = v68
		} else {
			v69 = v65
		}
		vals[69] = v69
		var v71 uint64
		if v24 == 0x3 {
			v71 = 1
		}
		vals[71] = v71
		v72 := v6 & v71
		vals[72] = v72
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v70
		}
		vals[74] = v74
		var v76 uint64
		if v24 == 0x2 {
			v76 = 1
		}
		vals[76] = v76
		v77 := v4 & v76
		vals[77] = v77
		var v79 uint64
		if v77 != 0 {
			v79 = v78
		} else {
			v79 = v75
		}
		vals[79] = v79
		v81 := v2 & v51
		vals[81] = v81
		var v83 uint64
		if v81 != 0 {
			v83 = v82
		} else {
			v83 = v80
		}
		vals[83] = v83
		var v84 uint64
		if v0 == 0x6 {
			v84 = 1
		}
		vals[84] = v84
	}
	done := vals[84] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[29] & 0xffffff
	l3 := vals[33] & 0xffffff
	l4 := vals[37] & 0xffffff
	l5 := vals[29] & 0xffffff
	l6 := vals[46] & 0xffffff
	l7 := vals[49] & 0xffffff
	l8 := vals[54] & 0xffffff
	l9 := vals[59] & 0xffffff
	l10 := vals[64] & 0xffffff
	l11 := vals[69] & 0xffffff
	l12 := vals[74] & 0xffffff
	l13 := vals[79] & 0xffffff
	l14 := vals[83] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[30] = l3
	vals[34] = l4
	vals[38] = l5
	vals[39] = l6
	vals[47] = l7
	vals[50] = l8
	vals[55] = l9
	vals[60] = l10
	vals[65] = l11
	vals[70] = l12
	vals[75] = l13
	vals[80] = l14
	return cycles + 1, done
}

func step_djpeg_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[72]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v32 := vals[32]
	v36 := vals[36]
	v44 := vals[44]
	v47 := vals[47]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x1
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x1:
			v70 := (v67 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v70
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x2
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x2:
			var v37 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v37 = m0[addr] & 0x3ffffff
			}
			v39 := v37 & 0x3f
			v41 := (v39 >> 1)
			v42 := (v36 + v41) & 0xffffff
			v45 := (v44 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v42
			v46 := v45
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v65
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x3
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x3:
			v30 := (v28 + 0xc) & 0xffffff
			v34 := (v32 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v27 := v15
			v31 := v30
			v35 := v34
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v60
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x4
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x4:
			v55 := (v52 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x5
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x5:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v50 := (v47 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			n0 := v24
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = n0
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x6:
			break loop
		default:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v30 := (v28 + 0xc) & 0xffffff
			v34 := (v32 + 0x1) & 0xffffff
			var v37 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v37 = m0[addr] & 0x3ffffff
			}
			v39 := v37 & 0x3f
			v41 := (v39 >> 1)
			v42 := (v36 + v41) & 0xffffff
			v45 := (v44 + 0x1) & 0xffffff
			v50 := (v47 + 0x1) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v31 uint64
			if v8 != 0 {
				v31 = v30
			} else {
				v31 = v28
			}
			var v35 uint64
			if v8 != 0 {
				v35 = v34
			} else {
				v35 = v32
			}
			var v43 uint64
			if v6 != 0 {
				v43 = v42
			} else {
				v43 = v36
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v44
			}
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := v12 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v53 uint64
			if v24 == 0x5 {
				v53 = 1
			}
			v54 := v10 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x4 {
				v58 = 1
			}
			v59 := v8 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x3 {
				v63 = 1
			}
			v64 := v6 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x2 {
				v68 = 1
			}
			v69 := v4 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v72 uint64
			if v0 == 0x6 {
				v72 = 1
			}
			if v72 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = n0
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[32] = v32
	vals[36] = v36
	vals[44] = v44
	vals[47] = v47
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x7ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x6
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v26 := (v15 + 0x1) & 0x7ff
	vals[26] = v26
	v30 := (v28 + 0xc) & 0xffffff
	vals[30] = v30
	v34 := (v32 + 0x1) & 0xffffff
	vals[34] = v34
	var v37 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v37 = m0[addr] & 0x3ffffff
	}
	vals[37] = v37
	v39 := v37 & 0x3f
	vals[39] = v39
	v41 := (v39 >> 1)
	vals[41] = v41
	v42 := (v36 + v41) & 0xffffff
	vals[42] = v42
	v45 := (v44 + 0x1) & 0xffffff
	vals[45] = v45
	v50 := (v47 + 0x1) & 0xffffff
	vals[50] = v50
	v55 := (v52 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[24] = 0x1
		v27 := v15
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x1
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x1
		vals[23] = 0x2
		vals[24] = 0x2
		v27 := v15
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x1
		vals[69] = 0x1
		v71 := v70
		vals[71] = v71
		vals[72] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x2
		vals[22] = 0x3
		vals[23] = 0x3
		vals[24] = 0x3
		v27 := v15
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v42
		vals[43] = v43
		v46 := v45
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x1
		vals[64] = 0x1
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x3
		vals[20] = 0x3
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[24] = 0x4
		v27 := v15
		vals[27] = v27
		v31 := v30
		vals[31] = v31
		v35 := v34
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[24] = 0x5
		v27 := v15
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x1
		vals[54] = 0x1
		v56 := v55
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v27 := v26
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		var v48 uint64
		if v24 == 0x1 {
			v48 = 1
		}
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		var v51 uint64
		if v49 != 0 {
			v51 = v50
		} else {
			v51 = v47
		}
		vals[51] = v51
		var v53 uint64
		if v24 == 0x5 {
			v53 = 1
		}
		vals[53] = v53
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		var v58 uint64
		if v24 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v24 == 0x3 {
			v63 = 1
		}
		vals[63] = v63
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		var v68 uint64
		if v24 == 0x2 {
			v68 = 1
		}
		vals[68] = v68
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[24] = 0x6
		v27 := v15
		vals[27] = v27
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x1
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
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
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
		if v10 != 0 {
			v20 = 0x5
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = 0x4
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v6 != 0 {
			v22 = 0x3
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v4 != 0 {
			v23 = 0x2
		} else {
			v23 = v22
		}
		vals[23] = v23
		var v24 uint64
		if v2 != 0 {
			v24 = 0x1
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v27 uint64
		if v12 != 0 {
			v27 = v26
		} else {
			v27 = v15
		}
		vals[27] = v27
		var v31 uint64
		if v8 != 0 {
			v31 = v30
		} else {
			v31 = v28
		}
		vals[31] = v31
		var v35 uint64
		if v8 != 0 {
			v35 = v34
		} else {
			v35 = v32
		}
		vals[35] = v35
		var v43 uint64
		if v6 != 0 {
			v43 = v42
		} else {
			v43 = v36
		}
		vals[43] = v43
		var v46 uint64
		if v6 != 0 {
			v46 = v45
		} else {
			v46 = v44
		}
		vals[46] = v46
		var v48 uint64
		if v24 == 0x1 {
			v48 = 1
		}
		vals[48] = v48
		v49 := v12 & v48
		vals[49] = v49
		var v51 uint64
		if v49 != 0 {
			v51 = v50
		} else {
			v51 = v47
		}
		vals[51] = v51
		var v53 uint64
		if v24 == 0x5 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v10 & v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v24 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v8 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v24 == 0x3 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v6 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v24 == 0x2 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v4 & v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v72 uint64
		if v0 == 0x6 {
			v72 = 1
		}
		vals[72] = v72
	}
	done := vals[72] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[31] & 0xffffff
	l3 := vals[35] & 0xffffff
	l4 := vals[43] & 0xffffff
	l5 := vals[46] & 0xffffff
	l6 := vals[51] & 0xffffff
	l7 := vals[56] & 0xffffff
	l8 := vals[61] & 0xffffff
	l9 := vals[66] & 0xffffff
	l10 := vals[71] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[32] = l3
	vals[36] = l4
	vals[44] = l5
	vals[47] = l6
	vals[52] = l7
	vals[57] = l8
	vals[62] = l9
	vals[67] = l10
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("79801d9fb490561b236fadcbffaf0080a96a54b0732c9b9b035156bb1769355f", "djpeg_cone", step_djpeg_cone)
	rtl.RegisterNative("a382f731d6dd2b8cbd099d6e2c57fd843f66b80d06f1d477ddc780593bbbec55", "djpeg_slice_all", step_djpeg_slice_all)
	rtl.RegisterNative("aa58d9dccf8c52a035cf0f978bc3a1d425487b1708f341198db642ad45c518f2", "djpeg_slice_t42", step_djpeg_slice_t42)
}
