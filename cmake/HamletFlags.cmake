# Shared compile/link settings: strict warnings for all hamlet targets and
# the opt-in HAMLET_SANITIZE (ASan+UBSan) / HAMLET_TSAN (ThreadSanitizer)
# modes. The two sanitizer modes are mutually exclusive (TSan cannot link
# with ASan).
#
# Usage: target_link_libraries(<tgt> PRIVATE hamlet::flags)

add_library(hamlet_flags INTERFACE)
add_library(hamlet::flags ALIAS hamlet_flags)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(hamlet_flags INTERFACE -Wall -Wextra -Werror)
  # Never fuse a multiply and an add: results are pinned bit for bit
  # (tests/ann_test.cc), and gcc contracts C++ by default wherever the
  # target has FMA (aarch64, -march=native).
  target_compile_options(hamlet_flags INTERFACE -ffp-contract=off)
elseif(MSVC)
  target_compile_options(hamlet_flags INTERFACE /W4 /WX)
endif()

if(HAMLET_SANITIZE AND HAMLET_TSAN)
  message(FATAL_ERROR
    "HAMLET_SANITIZE and HAMLET_TSAN are mutually exclusive; pick one")
endif()

if(HAMLET_SANITIZE)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(FATAL_ERROR "HAMLET_SANITIZE requires gcc or clang")
  endif()
  set(_hamlet_san_flags -fsanitize=address,undefined -fno-sanitize-recover=all
      -fno-omit-frame-pointer)
  target_compile_options(hamlet_flags INTERFACE ${_hamlet_san_flags})
  target_link_options(hamlet_flags INTERFACE ${_hamlet_san_flags})
  # Keep CodeMatrix::at() bounds checks on even in optimised sanitizer
  # builds: a row-internal overrun stays inside the heap allocation, where
  # ASan alone cannot flag it.
  target_compile_definitions(hamlet_flags INTERFACE HAMLET_CHECK_BOUNDS=1)
  message(STATUS "hamlet: building with ASan + UBSan")
endif()

if(HAMLET_TSAN)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(FATAL_ERROR "HAMLET_TSAN requires gcc or clang")
  endif()
  set(_hamlet_tsan_flags -fsanitize=thread -fno-omit-frame-pointer)
  target_compile_options(hamlet_flags INTERFACE ${_hamlet_tsan_flags})
  target_link_options(hamlet_flags INTERFACE ${_hamlet_tsan_flags})
  target_compile_definitions(hamlet_flags INTERFACE HAMLET_CHECK_BOUNDS=1)
  message(STATUS "hamlet: building with ThreadSanitizer")
endif()

# Clang's thread-safety analysis checks the HAMLET_GUARDED_BY/
# HAMLET_REQUIRES annotations (common/thread_annotations.h) at compile
# time. Combined with the project-wide -Werror, any lock-discipline
# violation is a build break. The analysis only exists in clang; gcc
# builds compile the annotations as no-ops, so this mode is a hard error
# elsewhere rather than a silent no-op.
if(HAMLET_THREAD_SAFETY)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
    message(FATAL_ERROR
      "HAMLET_THREAD_SAFETY requires clang (-Wthread-safety is a clang "
      "analysis; gcc builds treat the annotations as no-ops)")
  endif()
  target_compile_options(hamlet_flags INTERFACE -Wthread-safety)
  message(STATUS "hamlet: clang thread-safety analysis enabled")
endif()
