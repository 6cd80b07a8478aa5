//! IOC detection and protection (paper §2.4, "IOC protection").
//!
//! IOCs are full of characters that break general NLP tooling: dots inside
//! file names and IP addresses end "sentences", backslashes inside registry
//! keys split "tokens". The paper's fix is to find IOCs *first* and shield
//! them through tokenization. This module is the finder: a set of
//! hand-written scanners (no regex dependency) that locate IOC spans with
//! their ontology kinds.
//!
//! The scanners understand common *defanging* conventions used by CTI
//! authors: `hxxp://`, `[.]`, `(.)` and `[at]`.

use kg_ontology::EntityKind;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A detected IOC span in some text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IocSpan {
    /// IOC kind (always one of `EntityKind::IOCS` or `Vulnerability` for
    /// CVE identifiers).
    pub kind: EntityKind,
    /// Byte offset of the span start.
    pub start: usize,
    /// Byte offset one past the span end.
    pub end: usize,
    /// The matched text, exactly as it appears.
    pub text: String,
}

/// Configurable IOC scanner.
#[derive(Debug, Clone)]
pub struct IocMatcher {
    file_extensions: Vec<&'static str>,
    tlds: Vec<&'static str>,
}

/// File extensions recognised as file-name IOCs.
const FILE_EXTENSIONS: &[&str] = &[
    "exe", "dll", "bat", "cmd", "ps1", "vbs", "js", "jse", "wsf", "hta", "scr", "pif", "sys",
    "drv", "ocx", "cpl", "msi", "jar", "apk", "elf", "so", "dylib", "sh", "py", "pl", "rb", "doc",
    "docx", "docm", "xls", "xlsx", "xlsm", "ppt", "pptx", "pdf", "rtf", "zip", "rar", "7z", "tar",
    "gz", "iso", "img", "lnk", "tmp", "dat", "bin", "log", "db", "sqlite", "cfg", "ini", "key",
    "pem",
];

/// Top-level domains recognised as domain IOCs. Intentionally not exhaustive:
/// the synthetic corpus and common CTI reporting use these.
const TLDS: &[&str] = &[
    "com", "net", "org", "io", "ru", "cn", "info", "biz", "onion", "xyz", "top", "cc", "su", "uk",
    "de", "fr", "kr", "jp", "in", "br", "nl", "se", "ch", "eu", "us", "ca", "au", "edu", "gov",
    "mil", "co", "me", "tv", "ws", "pw", "site", "online", "club", "space", "example",
];

impl IocMatcher {
    /// The standard matcher with the built-in extension and TLD lists.
    pub fn standard() -> Self {
        IocMatcher {
            file_extensions: FILE_EXTENSIONS.to_vec(),
            tlds: TLDS.to_vec(),
        }
    }

    /// Find every IOC span in `text`, left to right, non-overlapping.
    pub fn find_all(&self, text: &str) -> Vec<IocSpan> {
        let bytes = text.as_bytes();
        let mut spans = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            // Skip whitespace.
            if bytes[i].is_ascii_whitespace() {
                i += 1;
                continue;
            }
            // Take the maximal non-whitespace chunk.
            let chunk_start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let chunk_end = i;
            // Trim punctuation that is sentence decoration, not IOC content.
            let (s, e) = trim_decoration(text, chunk_start, chunk_end);
            if s >= e {
                continue;
            }
            let candidate = &text[s..e];
            if let Some(kind) = self.classify(candidate) {
                spans.push(IocSpan {
                    kind,
                    start: s,
                    end: e,
                    text: candidate.to_owned(),
                });
            }
        }
        spans
    }

    /// Classify one whitespace-delimited candidate, highest-priority first.
    pub fn classify(&self, s: &str) -> Option<EntityKind> {
        if is_url(s) {
            return Some(EntityKind::Url);
        }
        if is_email(s) {
            return Some(EntityKind::Email);
        }
        if is_registry_key(s) {
            return Some(EntityKind::RegistryKey);
        }
        if is_cve(s) {
            return Some(EntityKind::Vulnerability);
        }
        if let Some(kind) = hash_kind(s) {
            return Some(kind);
        }
        if is_ipv4(s) {
            return Some(EntityKind::IpAddress);
        }
        if self.is_file_path(s) {
            return Some(EntityKind::FilePath);
        }
        if self.is_file_name(s) {
            return Some(EntityKind::FileName);
        }
        if self.is_domain(s) {
            return Some(EntityKind::Domain);
        }
        None
    }

    fn is_file_name(&self, s: &str) -> bool {
        // name.ext where ext is known and name has no path separators.
        let Some(dot) = s.rfind('.') else {
            return false;
        };
        if dot == 0 || dot + 1 >= s.len() {
            return false;
        }
        let (name, ext) = (&s[..dot], &s[dot + 1..]);
        if name.contains('/') || name.contains('\\') || name.contains('@') {
            return false;
        }
        // The listed extensions are lowercase.
        self.file_extensions
            .iter()
            .any(|e| e.eq_ignore_ascii_case(ext))
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-$%~".contains(c))
    }

    fn is_file_path(&self, s: &str) -> bool {
        // Windows: drive letter + :\ ; UNC \\host\share ; Unix absolute path.
        let b = s.as_bytes();
        let win = b.len() > 3
            && b[0].is_ascii_alphabetic()
            && b[1] == b':'
            && b[2] == b'\\'
            && s[3..].chars().all(is_pathish_char);
        let unc = s.starts_with("\\\\") && s.len() > 2 && s[2..].chars().all(is_pathish_char);
        let unix = s.starts_with('/')
            && s.len() > 1
            && s.matches('/').count() >= 2
            && s.chars().all(|c| is_pathish_char(c) || c == '/');
        win || unc || unix
    }

    fn is_domain(&self, s: &str) -> bool {
        let refanged = refanged(s);
        // At least two labels; the listed TLDs are lowercase.
        let Some((_, tld)) = refanged.rsplit_once('.') else {
            return false;
        };
        if !self.tlds.iter().any(|t| t.eq_ignore_ascii_case(tld)) {
            return false;
        }
        refanged.split('.').all(|l| {
            !l.is_empty()
                && l.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                && !l.starts_with('-')
                && !l.ends_with('-')
        })
    }
}

/// Strip defanging (`[.]`, `(.)`, `[at]`, `hxxp`) from a candidate.
pub fn refang(s: &str) -> String {
    refanged(s).into_owned()
}

/// [`refang`], borrowing `s` when it holds no defanging sequence: the
/// classifiers run on every whitespace chunk of every tokenized text, and
/// almost none is defanged.
fn refanged(s: &str) -> Cow<'_, str> {
    if !["[.]", "(.)", "[at]", "hxxp"].iter().any(|p| s.contains(p)) {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.replace("[.]", ".")
            .replace("(.)", ".")
            .replace("[at]", "@")
            .replace("hxxps://", "https://")
            .replace("hxxp://", "http://"),
    )
}

fn is_pathish_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "\\/._-$%~ ()".contains(c) && c != ' '
}

/// Trim decoration punctuation from chunk edges, preserving IOC-internal
/// punctuation (brackets used for defanging survive because `[` is only
/// trimmed when unmatched).
fn trim_decoration(text: &str, mut start: usize, mut end: usize) -> (usize, usize) {
    const TRAIL: &[char] = &['.', ',', ';', ':', '!', '?', ')', '"', '\'', '>', ']', '}'];
    const LEAD: &[char] = &['(', '"', '\'', '<', '[', '{'];
    // Leading: trim decoration unless it begins a defang sequence like "[.]".
    while start < end {
        let ch = text[start..end].chars().next().unwrap();
        if LEAD.contains(&ch) && !text[start..end].starts_with("[.]") {
            start += ch.len_utf8();
        } else {
            break;
        }
    }
    // Trailing: trim decoration unless it closes a defang bracket "[.]".
    while start < end {
        let ch = text[start..end].chars().next_back().unwrap();
        if TRAIL.contains(&ch) && !text[start..end].ends_with("[.]") {
            end -= ch.len_utf8();
        } else {
            break;
        }
    }
    (start, end)
}

fn is_url(s: &str) -> bool {
    let refanged = refanged(s);
    for scheme in ["http://", "https://", "ftp://", "tcp://"] {
        if let Some(rest) = refanged.strip_prefix(scheme) {
            return !rest.is_empty() && !rest.contains(char::is_whitespace);
        }
    }
    false
}

fn is_email(s: &str) -> bool {
    let refanged = refanged(s);
    let Some((local, domain)) = refanged.split_once('@') else {
        return false;
    };
    if local.is_empty() || domain.is_empty() || domain.contains('@') {
        return false;
    }
    local
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "._%+-".contains(c))
        && domain.contains('.')
        && domain
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || ".-_".contains(c))
}

fn is_registry_key(s: &str) -> bool {
    const HIVES: &[&str] = &[
        "HKEY_LOCAL_MACHINE",
        "HKEY_CURRENT_USER",
        "HKEY_CLASSES_ROOT",
        "HKEY_USERS",
        "HKEY_CURRENT_CONFIG",
        "HKLM",
        "HKCU",
        "HKCR",
        "HKU",
    ];
    HIVES
        .iter()
        .any(|h| s.len() > h.len() && s.starts_with(h) && s.as_bytes()[h.len()] == b'\\')
}

fn is_cve(s: &str) -> bool {
    // Case-insensitive "CVE-" prefix; the rest is checked byte-exact.
    let Some(rest) = s
        .get(..4)
        .filter(|prefix| prefix.eq_ignore_ascii_case("CVE-"))
        .map(|_| &s[4..])
    else {
        return false;
    };
    let Some((year, num)) = rest.split_once('-') else {
        return false;
    };
    year.len() == 4
        && year.bytes().all(|b| b.is_ascii_digit())
        && num.len() >= 4
        && num.bytes().all(|b| b.is_ascii_digit())
}

fn hash_kind(s: &str) -> Option<EntityKind> {
    if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    // Require at least one letter so plain long numbers don't match.
    if !s.bytes().any(|b| b.is_ascii_alphabetic()) {
        return None;
    }
    match s.len() {
        32 => Some(EntityKind::HashMd5),
        40 => Some(EntityKind::HashSha1),
        64 => Some(EntityKind::HashSha256),
        _ => None,
    }
}

fn is_ipv4(s: &str) -> bool {
    let refanged = refanged(s);
    let mut count = 0;
    for part in refanged.split('.') {
        count += 1;
        if count > 4 || part.is_empty() || part.len() > 3 {
            return false;
        }
        if !part.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        if part.parse::<u32>().map_or(true, |v| v > 255) {
            return false;
        }
    }
    count == 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use EntityKind::*;

    fn classify(s: &str) -> Option<EntityKind> {
        IocMatcher::standard().classify(s)
    }

    #[test]
    fn classifies_each_ioc_kind() {
        assert_eq!(classify("192.168.10.5"), Some(IpAddress));
        assert_eq!(classify("http://evil.example/payload"), Some(Url));
        assert_eq!(classify("admin@corp.example.com"), Some(Email));
        assert_eq!(classify("c2.badguys.ru"), Some(Domain));
        assert_eq!(classify("tasksche.exe"), Some(FileName));
        assert_eq!(classify(r"C:\Windows\system32\drivers\etc"), Some(FilePath));
        assert_eq!(classify("/usr/local/bin/dropper"), Some(FilePath));
        assert_eq!(classify(r"HKLM\Software\Run\Updater"), Some(RegistryKey));
        assert_eq!(classify("d41d8cd98f00b204e9800998ecf8427e"), Some(HashMd5));
        assert_eq!(
            classify("da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            Some(HashSha1)
        );
        assert_eq!(
            classify("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            Some(HashSha256)
        );
        assert_eq!(classify("CVE-2017-0144"), Some(Vulnerability));
    }

    #[test]
    fn rejects_plain_words_and_numbers() {
        assert_eq!(classify("ransomware"), None);
        assert_eq!(classify("12345678901234567890123456789012"), None); // no hex letters
        assert_eq!(classify("300.1.2.3"), None); // octet out of range
        assert_eq!(classify("1.2.3"), None); // too few octets
        assert_eq!(classify("version"), None);
        assert_eq!(classify("e.g"), None);
    }

    #[test]
    fn handles_defanged_indicators() {
        assert_eq!(classify("hxxp://evil[.]example/x"), Some(Url));
        assert_eq!(classify("c2[.]badguys[.]ru"), Some(Domain));
        assert_eq!(classify("10[.]0[.]0[.]1"), Some(IpAddress));
        assert_eq!(classify("spam[at]evil.ru"), Some(Email));
    }

    #[test]
    fn find_all_locates_spans_with_offsets() {
        let m = IocMatcher::standard();
        let text = "It dropped tasksche.exe, then reached 104.20.1.1.";
        let spans = m.find_all(text);
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(spans[0].kind, FileName);
        assert_eq!(&text[spans[0].start..spans[0].end], "tasksche.exe");
        assert_eq!(spans[1].kind, IpAddress);
        assert_eq!(&text[spans[1].start..spans[1].end], "104.20.1.1");
    }

    #[test]
    fn find_all_trims_decoration_but_not_defang_brackets() {
        let m = IocMatcher::standard();
        let text = "(see evil[.]example[.]com).";
        let spans = m.find_all(text);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].text, "evil[.]example[.]com");
        assert_eq!(spans[0].kind, Domain);
    }

    #[test]
    fn filename_vs_domain_priority() {
        // "update.exe" is a file, "update.com" is ambiguous — the historical
        // .com executable extension is not in our list, so the TLD wins.
        assert_eq!(classify("update.exe"), Some(FileName));
        assert_eq!(classify("update.com"), Some(Domain));
    }

    #[test]
    fn email_not_misread_as_domain() {
        assert_eq!(classify("ops@dark.example.net"), Some(Email));
    }

    #[test]
    fn registry_hive_requires_backslash() {
        assert_eq!(classify("HKLM"), None);
        assert_eq!(classify(r"HKCU\Environment"), Some(RegistryKey));
    }
}
