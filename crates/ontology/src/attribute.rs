//! Entity and relation attributes (paper §2.3: entities have "attributes in
//! the form of key-value pairs").
//!
//! Attributes are an ordered map from well-known keys to typed values. The
//! graph store persists them verbatim; the Cypher engine can filter on them.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Well-known attribute keys plus an escape hatch for source-specific keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttributeKey {
    /// Canonical display name of the entity.
    Name,
    /// Free-text description (used for exact-match merging in §2.5).
    Description,
    /// Source URL the fact was extracted from.
    SourceUrl,
    /// Identifier of the report the fact came from.
    ReportId,
    /// Crawl timestamp (simulated epoch milliseconds).
    Timestamp,
    /// Name of the CTI vendor.
    Vendor,
    /// Extractor confidence in `[0, 1]`.
    Confidence,
    /// The raw verb that produced a `RELATED_TO` edge.
    Verb,
    /// Aliases accumulated during knowledge fusion.
    Aliases,
    /// Any other key, preserved verbatim from the source.
    Other(String),
}

impl AttributeKey {
    /// The canonical property name used in the graph store / Cypher.
    pub fn as_str(&self) -> &str {
        match self {
            AttributeKey::Name => "name",
            AttributeKey::Description => "description",
            AttributeKey::SourceUrl => "source_url",
            AttributeKey::ReportId => "report_id",
            AttributeKey::Timestamp => "timestamp",
            AttributeKey::Vendor => "vendor",
            AttributeKey::Confidence => "confidence",
            AttributeKey::Verb => "verb",
            AttributeKey::Aliases => "aliases",
            AttributeKey::Other(s) => s,
        }
    }

    /// Parse a property name back into a key; unknown names become `Other`.
    pub fn from_name(name: &str) -> AttributeKey {
        match name {
            "name" => AttributeKey::Name,
            "description" => AttributeKey::Description,
            "source_url" => AttributeKey::SourceUrl,
            "report_id" => AttributeKey::ReportId,
            "timestamp" => AttributeKey::Timestamp,
            "vendor" => AttributeKey::Vendor,
            "confidence" => AttributeKey::Confidence,
            "verb" => AttributeKey::Verb,
            "aliases" => AttributeKey::Aliases,
            other => AttributeKey::Other(other.to_owned()),
        }
    }
}

impl fmt::Display for AttributeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeValue {
    Text(String),
    Integer(i64),
    Float(f64),
    Bool(bool),
    /// A list of strings (e.g. accumulated aliases).
    List(Vec<String>),
}

impl AttributeValue {
    /// The value as text, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttributeValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float; integers coerce.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttributeValue::Float(f) => Some(*f),
            AttributeValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }
}

impl From<&str> for AttributeValue {
    fn from(s: &str) -> Self {
        AttributeValue::Text(s.to_owned())
    }
}

impl From<String> for AttributeValue {
    fn from(s: String) -> Self {
        AttributeValue::Text(s)
    }
}

impl From<i64> for AttributeValue {
    fn from(i: i64) -> Self {
        AttributeValue::Integer(i)
    }
}

impl From<f64> for AttributeValue {
    fn from(f: f64) -> Self {
        AttributeValue::Float(f)
    }
}

impl From<bool> for AttributeValue {
    fn from(b: bool) -> Self {
        AttributeValue::Bool(b)
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Text(s) => f.write_str(s),
            AttributeValue::Integer(i) => write!(f, "{i}"),
            AttributeValue::Float(x) => write!(f, "{x}"),
            AttributeValue::Bool(b) => write!(f, "{b}"),
            AttributeValue::List(xs) => write!(f, "[{}]", xs.join(", ")),
        }
    }
}

/// An ordered key → value attribute map.
///
/// `BTreeMap` keeps serialisation deterministic, which the pipeline relies on
/// for byte-identical intermediate representations across hosts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Attributes(BTreeMap<AttributeKey, AttributeValue>);

impl Attributes {
    /// An empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a value; returns `self` for builder-style chaining.
    pub fn with(mut self, key: AttributeKey, value: impl Into<AttributeValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Insert or replace a value.
    pub fn set(&mut self, key: AttributeKey, value: impl Into<AttributeValue>) {
        self.0.insert(key, value.into());
    }

    /// Look up a value.
    pub fn get(&self, key: &AttributeKey) -> Option<&AttributeValue> {
        self.0.get(key)
    }

    /// Look up a text value by key.
    pub fn text(&self, key: &AttributeKey) -> Option<&str> {
        self.get(key).and_then(AttributeValue::as_text)
    }

    /// Remove a value, returning it if present.
    pub fn remove(&mut self, key: &AttributeKey) -> Option<AttributeValue> {
        self.0.remove(key)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttributeKey, &AttributeValue)> {
        self.0.iter()
    }

    /// Merge `other` into `self`. Existing keys win (the fusion stage relies
    /// on this to prevent late reports from clobbering earlier attributes);
    /// `Aliases` lists are unioned instead.
    pub fn merge_preferring_self(&mut self, other: &Attributes) {
        for (k, v) in other.iter() {
            match (self.0.get_mut(k), v) {
                (Some(AttributeValue::List(mine)), AttributeValue::List(theirs)) => {
                    for alias in theirs {
                        if !mine.contains(alias) {
                            mine.push(alias.clone());
                        }
                    }
                }
                (Some(_), _) => {}
                (None, _) => {
                    self.0.insert(k.clone(), v.clone());
                }
            }
        }
    }
}

impl FromIterator<(AttributeKey, AttributeValue)> for Attributes {
    fn from_iter<T: IntoIterator<Item = (AttributeKey, AttributeValue)>>(iter: T) -> Self {
        Attributes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let a = Attributes::new()
            .with(AttributeKey::Name, "wannacry")
            .with(AttributeKey::Confidence, 0.97);
        assert_eq!(a.text(&AttributeKey::Name), Some("wannacry"));
        assert_eq!(
            a.get(&AttributeKey::Confidence).unwrap().as_float(),
            Some(0.97)
        );
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn merge_prefers_self_but_unions_lists() {
        let mut a = Attributes::new().with(AttributeKey::Name, "wannacry").with(
            AttributeKey::Aliases,
            AttributeValue::List(vec!["wcry".into()]),
        );
        let b = Attributes::new()
            .with(AttributeKey::Name, "WannaCrypt")
            .with(
                AttributeKey::Aliases,
                AttributeValue::List(vec!["wcry".into(), "wanna decryptor".into()]),
            )
            .with(AttributeKey::Vendor, "securelist");
        a.merge_preferring_self(&b);
        assert_eq!(a.text(&AttributeKey::Name), Some("wannacry"));
        assert_eq!(a.text(&AttributeKey::Vendor), Some("securelist"));
        match a.get(&AttributeKey::Aliases).unwrap() {
            AttributeValue::List(xs) => {
                assert_eq!(xs, &vec!["wcry".to_owned(), "wanna decryptor".to_owned()])
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn key_name_round_trip() {
        for key in [
            AttributeKey::Name,
            AttributeKey::Description,
            AttributeKey::SourceUrl,
            AttributeKey::ReportId,
            AttributeKey::Timestamp,
            AttributeKey::Vendor,
            AttributeKey::Confidence,
            AttributeKey::Verb,
            AttributeKey::Aliases,
            AttributeKey::Other("custom_field".into()),
        ] {
            assert_eq!(AttributeKey::from_name(key.as_str()), key);
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = Attributes::new()
            .with(AttributeKey::Name, "emotet")
            .with(AttributeKey::Timestamp, 1_600_000_000_000_i64);
        let j = serde_json::to_string(&a).unwrap();
        let back: Attributes = serde_json::from_str(&j).unwrap();
        assert_eq!(back, a);
    }
}
