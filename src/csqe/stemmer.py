"""Porter stemmer.

Implements the classic five-step suffix-stripping algorithm, including the
two revisions carried by the maintained reference implementations:

* step 2 uses ``bli -> ble`` instead of ``abli -> able``;
* step 2 gains ``logi -> log``, with the leading ``l`` counted as part of
  the stem for the measure test (so geo-/bio- stems behave like philo-).

Words of length <= 2 are returned unchanged, and no non-empty word stems to
``""``. ``stem`` is not memoized: ``corpus.tokenize`` keeps the bounded
word -> term memo and calls ``stem`` only for a word the memo does not hold.
"""

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when it follows a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences: [C](VC)^m[V]."""
    n = 0
    i = 0
    length = len(stem)
    while i < length and _is_consonant(stem, i):
        i += 1
    while i < length:
        while i < length and not _is_consonant(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and _is_consonant(stem, i):
            i += 1
    return n


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x or y."""
    n = len(stem)
    if n < 3:
        return False
    if _is_consonant(stem, n - 3) and not _is_consonant(stem, n - 2) and _is_consonant(stem, n - 1):
        return stem[-1] not in "wxy"
    return False


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b_cleanup(stem: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    if w.endswith("ed"):
        stem = w[:-2]
        if _contains_vowel(stem):
            return _step1b_cleanup(stem)
        return w
    if w.endswith("ing"):
        stem = w[:-3]
        if _contains_vowel(stem):
            return _step1b_cleanup(stem)
        return w
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _contains_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


# Ordered so that longer suffixes shadow their own tails (ization before
# ation, ational before tional, ement before ment before ent). The first
# matching suffix decides; a failed measure test stops the scan.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _step2(w: str) -> str:
    for suffix, repl in _STEP2_RULES:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "logi":
                if _measure(w[:-3]) > 0:
                    return stem + repl
            elif _measure(stem) > 0:
                return stem + repl
            return w
    return w


def _step3(w: str) -> str:
    for suffix, repl in _STEP3_RULES:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        a = _measure(w)
        if a > 1 or (a == 1 and not _ends_cvc(w[:-1])):
            w = w[:-1]
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    w = _step1a(word)
    w = _step1b(w)
    w = _step1c(w)
    w = _step2(w)
    w = _step3(w)
    w = _step4(w)
    return _step5(w)
